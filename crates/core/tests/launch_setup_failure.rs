//! A launch whose setup fails leaves no thread behind.  The only test in
//! its binary, so the threads it counts are the launch's own.

#[cfg(target_os = "linux")]
#[test]
fn a_launch_that_fails_during_setup_leaves_no_thread_running() {
    use std::time::{Duration, Instant};

    use dcgn::{CostModel, DcgnConfig, DcgnError, Runtime};

    /// Threads of this process named by the runtime (`dcgn-*`).
    fn dcgn_threads() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .expect("/proc/self/task")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_string())
            .filter(|name| name.starts_with("dcgn-"))
            .collect()
    }

    let mut config = DcgnConfig::homogeneous(2, 0, 1, 1);
    config.cost = CostModel::zero();
    // Too small for node 1's mailboxes, so its setup fails after node 0's
    // has succeeded.
    config.nodes[1].device.memory_bytes = 16;
    let runtime = Runtime::new(config).expect("valid config");
    let result = runtime.launch(|_| {}, |_| {});
    assert!(
        matches!(&result, Err(DcgnError::Device(msg)) if msg.contains("out of memory")),
        "{result:?}"
    );
    let give_up = Instant::now() + Duration::from_secs(2);
    while !dcgn_threads().is_empty() && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        dcgn_threads(),
        Vec::<String>::new(),
        "threads outlived the launch"
    );
}
