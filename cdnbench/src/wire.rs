//! The daemon under test and the benchmark's socket client.

use spacecdn_serve::server::{Daemon, ServeConfig};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;

/// A `spacecdn-serve` daemon serving on a loopback port from a thread of
/// this process. Dropping it shuts the daemon down and joins the thread.
pub struct LiveDaemon {
    addr: SocketAddr,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl LiveDaemon {
    pub fn start(journal_dir: &Path) -> io::Result<LiveDaemon> {
        let daemon = Daemon::bind(&ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            journal_dir: journal_dir.to_path_buf(),
            port_file: None,
        })?;
        let addr = daemon.local_addr()?;
        let thread = std::thread::spawn(move || daemon.run());
        Ok(LiveDaemon {
            addr,
            thread: Some(thread),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the daemon to shut down, wait for it, and report how it ended.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let sent = Client::connect(self.addr)
            .and_then(|mut c| c.call(r#"{"op":"shutdown"}"#).map(|_| ()))
            .map_err(|e| format!("shutdown request: {e}"));
        let joined = match thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon exited with {e}")),
            Err(_) => Err("daemon thread panicked".to_string()),
        };
        sent.and(joined)
    }
}

impl Drop for LiveDaemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// One connection speaking the line protocol: a request line out, one
/// response line back.
pub struct Client {
    reader: BufReader<TcpStream>,
    response: String,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream),
            response: String::new(),
        })
    }

    /// Send `line` and return the daemon's response line (without the
    /// newline).
    pub fn call(&mut self, line: &str) -> io::Result<&str> {
        self.response.clear();
        self.response.push_str(line);
        self.response.push('\n');
        self.reader.get_mut().write_all(self.response.as_bytes())?;
        self.response.clear();
        if self.reader.read_line(&mut self.response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(self.response.trim_end())
    }
}
