//! The client side of the daemon's NDJSON protocol, and the scratch
//! directory the in-process daemons write into.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Instant;

/// One client connection: one request outstanding at a time.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Send one encoded request line and wait for its response line.
    /// Returns the response and the seconds from first byte sent to last
    /// byte received.
    pub fn call(&mut self, request: &str) -> Result<(String, f64), String> {
        self.line.clear();
        let started = Instant::now();
        self.writer
            .write_all(request.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        let elapsed = started.elapsed().as_secs_f64();
        if n == 0 {
            return Err("connection closed".into());
        }
        Ok((self.line.trim_end().to_string(), elapsed))
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct Scratch {
    pub dir: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        let dir = PathBuf::from(".perfbench_tmp").join(format!("{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        Scratch { dir }
    }

    /// A path inside the directory, as a string.
    pub fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Remove the parent too once the last run using it is done.
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}
