//! The program under test as a child process, and a client connection.
//!
//! The benchmark drives the real `dduf` binary (`db init`, `serve`) with
//! its default flags; `DDUF_SYNC_DELAY_US` and `DDUF_THREADS` are removed
//! from the child's environment so every fsync is the sandbox disk's own.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

pub type Result<T> = std::result::Result<T, String>;

/// Where the binaries and the run directories live: the directory cargo
/// built this benchmark into (`$CARGO_TARGET_DIR` or the one given with
/// `--target-dir`), so nothing is written outside the checkout.
pub struct Paths {
    /// The `dduf` binary, built from the repository's own manifest.
    pub dduf: PathBuf,
    /// Scratch directory for databases, removed when the run ends.
    pub work: PathBuf,
}

impl Paths {
    /// Builds `dduf` with the root manifest's release profile (a no-op
    /// when it is up to date) and creates the scratch directory.
    pub fn prepare() -> Result<Paths> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or("benchmark binary is not inside a cargo target directory")?;
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the benchmark package sits one level below the repository root");
        let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
            .args(["build", "--release", "--quiet", "--bin", "dduf"])
            .arg("--manifest-path")
            .arg(root.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(target)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building dduf failed ({status})"));
        }
        let dduf = target.join("release").join("dduf");
        if !dduf.is_file() {
            return Err(format!("{} was not built", dduf.display()));
        }
        let work = target
            .join("e2ebench-work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        Ok(Paths { dduf, work })
    }
}

impl Drop for Paths {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

fn dduf(paths: &Paths) -> Command {
    let mut cmd = Command::new(&paths.dduf);
    cmd.env_remove("DDUF_SYNC_DELAY_US")
        .env_remove("DDUF_THREADS");
    cmd
}

/// `dduf db init <schema> <dir>`.
pub fn db_init(paths: &Paths, schema: &Path, dir: &Path) -> Result<()> {
    let out = dduf(paths)
        .args(["db", "init"])
        .arg(schema)
        .arg(dir)
        .output()
        .map_err(|e| format!("cannot run dduf db init: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "dduf db init failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(())
}

/// A running `dduf serve`. Dropping it kills the process and waits.
pub struct Server {
    child: Child,
    /// Kept open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Starts `dduf serve <dir>` on an ephemeral loopback port and
    /// returns once it has printed `listening on <addr>`.
    pub fn start(paths: &Paths, dir: &Path) -> Result<Server> {
        let mut child = dduf(paths)
            .arg("serve")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot run dduf serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    if let Some(addr) = line.trim().strip_prefix("listening on ") {
                        return Ok(Server {
                            child,
                            addr: addr.to_string(),
                            _stdout: stdout,
                        });
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("dduf serve exited before listening".into());
                }
            }
        }
    }

    /// Peak resident set size so far (`VmHWM`), in MB.
    pub fn rss_peak_mb(&self) -> Result<f64> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// SIGKILL, then wait until the process is gone.
    pub fn kill(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One client connection speaking the line protocol: a request is one
/// line, a response is `ok|err <n>` followed by `n` body lines.
pub struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let w = TcpStream::connect(addr)?;
        w.set_nodelay(true)?;
        let r = BufReader::new(w.try_clone()?);
        Ok(Conn { w, r })
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.w.write_all(&buf)
    }

    pub fn recv(&mut self) -> io::Result<(bool, Vec<String>)> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.r.read_line(&mut line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let (status, count) = line
            .trim_end()
            .split_once(' ')
            .ok_or_else(|| bad("malformed response header"))?;
        let ok = match status {
            "ok" => true,
            "err" => false,
            _ => return Err(bad("malformed response status")),
        };
        let count: usize = count.parse().map_err(|_| bad("malformed response count"))?;
        let mut body = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            line.clear();
            if self.r.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            body.push(line.trim_end_matches(['\n', '\r']).to_string());
        }
        Ok((ok, body))
    }

    pub fn call(&mut self, line: &str) -> io::Result<(bool, Vec<String>)> {
        self.send(line)?;
        self.recv()
    }
}
