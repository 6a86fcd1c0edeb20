//! The `lssd` binary's command line.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn cache_dir_at_a_file_is_a_usage_error() {
    let blocker = std::env::temp_dir().join(format!("lssd-cli-{}-blocker", std::process::id()));
    std::fs::write(&blocker, "not a directory").unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_lssd"))
        .args(["--tcp", "127.0.0.1:0", "--cache-dir"])
        .arg(&blocker)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn lssd");
    // A daemon that accepted the path would serve forever: bound the wait.
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        if start.elapsed() > Duration::from_secs(10) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("lssd started serving with a file as its cache dir");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let stderr = std::io::read_to_string(child.stderr.take().unwrap()).unwrap();
    assert_eq!(status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("exists but is not a directory"), "{stderr}");
    let _ = std::fs::remove_file(&blocker);
}
