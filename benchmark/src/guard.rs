//! Process and scratch-file hygiene: every child is owned by a guard
//! that kills and reaps it on panic or early exit, every scratch file
//! lives under `benchmark/out/`, and a daemon left behind by a crashed
//! run is found and stopped rather than measured.

use crate::procfs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// File in a run directory naming the daemon that run spawned.
const DAEMON_PID_FILE: &str = "daemon.pid";

/// One run's private scratch directory, `out/run.<pid>/`, removed on
/// drop.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Claim a fresh run directory under `out`, first clearing what
    /// crashed runs left there.
    pub fn claim(out: &Path) -> Result<RunDir, String> {
        std::fs::create_dir_all(out).map_err(|e| format!("cannot create {out:?}: {e}"))?;
        sweep_leftovers(out)?;
        let path = out.join(format!("run.{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
        Ok(RunDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let p = self.path.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).map_err(|e| format!("cannot create {p:?}: {e}"))?;
        Ok(p)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Run directories whose owner is dead are leftovers of a crash. A
/// `miro serve` one of them still has running would share the CPUs with
/// this run's daemon, so it is killed; if it cannot be, the run is
/// refused.
fn sweep_leftovers(out: &Path) -> Result<(), String> {
    let entries = std::fs::read_dir(out).map_err(|e| format!("cannot list {out:?}: {e}"))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(owner) = name
            .strip_prefix("run.")
            .and_then(|p| p.parse::<u32>().ok())
        else {
            continue;
        };
        if Path::new(&format!("/proc/{owner}")).exists() {
            continue; // a live concurrent run owns it
        }
        let dir = entry.path();
        if let Some(pid) = std::fs::read_to_string(dir.join(DAEMON_PID_FILE))
            .ok()
            .and_then(|s| s.trim().parse::<u32>().ok())
        {
            if procfs::cmdline_contains(pid, "serve") {
                eprintln!("benchmark: killing leftover daemon {pid} of crashed run {owner}");
                procfs::kill_hard(pid);
                let gone = wait_until(Duration::from_secs(5), || {
                    !procfs::cmdline_contains(pid, "serve")
                });
                if !gone {
                    return Err(format!(
                        "a daemon left by a crashed run (pid {pid}) is still alive; refusing to measure beside it"
                    ));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(())
}

/// Poll `done` every millisecond until it holds or `limit` passes.
pub fn wait_until(limit: Duration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    loop {
        if done() {
            return true;
        }
        if start.elapsed() >= limit {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A child process that cannot outlive its owner.
pub struct ChildGuard {
    child: Child,
    pid_file: Option<PathBuf>,
}

impl ChildGuard {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Has the child exited on its own?
    pub fn exited(&mut self) -> bool {
        !matches!(self.child.try_wait(), Ok(None))
    }

    /// Kill and reap now, so the child's CPU time and peak RSS show up
    /// in this process's reaped-children accounting.
    pub fn stop(mut self) {
        self.kill_and_reap();
    }

    fn kill_and_reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(p) = self.pid_file.take() {
            let _ = std::fs::remove_file(p);
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill_and_reap();
    }
}

/// A running `miro serve` and the address it bound.
pub struct Daemon {
    pub guard: ChildGuard,
    pub addr: std::net::SocketAddr,
}

/// Spawn `miro serve <table> --cache <cache>` on a loopback port of the
/// kernel's choosing and wait for its port file. The table is opened
/// verified (the daemon's default).
pub fn spawn_daemon(
    miro: &Path,
    table: &Path,
    cache: &Path,
    run_dir: &Path,
) -> Result<Daemon, String> {
    let port_file = run_dir.join("serve.port");
    let _ = std::fs::remove_file(&port_file);
    let child = Command::new(miro)
        .arg("serve")
        .arg(table)
        .arg("--cache")
        .arg(cache)
        .args(["--addr", "127.0.0.1:0", "--quiet", "--port-file"])
        .arg(&port_file)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn {miro:?} serve: {e}"))?;
    let pid_file = run_dir.join(DAEMON_PID_FILE);
    let mut guard = ChildGuard {
        child,
        pid_file: Some(pid_file.clone()),
    };
    std::fs::write(&pid_file, guard.pid().to_string())
        .map_err(|e| format!("cannot write {pid_file:?}: {e}"))?;
    let mut addr = None;
    let up = wait_until(Duration::from_secs(60), || {
        // The daemon writes the file in one call, newline last.
        addr = std::fs::read_to_string(&port_file)
            .ok()
            .filter(|s| s.ends_with('\n'))
            .and_then(|s| s.trim().parse().ok());
        addr.is_some() || guard.exited()
    });
    match addr {
        Some(addr) if up => Ok(Daemon { guard, addr }),
        _ => Err("miro serve exited or stayed silent before publishing its port".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_out(tag: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn guard_kills_and_reaps_on_drop() {
        let child = Command::new("sleep").arg("60").spawn().unwrap();
        let guard = ChildGuard {
            child,
            pid_file: None,
        };
        let pid = guard.pid();
        assert!(Path::new(&format!("/proc/{pid}")).exists());
        drop(guard);
        // Reaped, not a zombie: the pid is gone from /proc.
        assert!(!Path::new(&format!("/proc/{pid}/stat")).exists());
    }

    #[test]
    fn guard_fires_when_the_owner_panics() {
        let (tx, rx) = std::sync::mpsc::channel();
        let t = std::thread::spawn(move || {
            let child = Command::new("sleep").arg("60").spawn().unwrap();
            let guard = ChildGuard {
                child,
                pid_file: None,
            };
            tx.send(guard.pid()).unwrap();
            panic!("early exit with a live child");
        });
        let pid = rx.recv().unwrap();
        assert!(t.join().is_err());
        assert!(!Path::new(&format!("/proc/{pid}/stat")).exists());
    }

    #[test]
    fn leftovers_of_dead_runs_are_swept_and_live_runs_kept() {
        let out = test_out("sweep");
        // pid 0x7fff_fff0 is above any pid_max: a dead owner.
        let dead = out.join("run.2147483632");
        std::fs::create_dir_all(&dead).unwrap();
        std::fs::write(dead.join(DAEMON_PID_FILE), "2147483633").unwrap();
        let run = RunDir::claim(&out).unwrap();
        assert!(!dead.exists());
        assert!(run.path().exists());
        // A second claim by a live owner (us) leaves our directory alone
        // until we re-create it.
        std::fs::write(run.path().join("marker"), "x").unwrap();
        sweep_leftovers(&out).unwrap();
        assert!(run.path().join("marker").exists());
        let kept = run.path().to_path_buf();
        drop(run);
        assert!(!kept.exists());
        std::fs::remove_dir_all(&out).unwrap();
    }
}
