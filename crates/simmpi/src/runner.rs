//! The parallel sweep helper every driver above this crate maps its
//! points with.

/// Maps `f` over `items` on up to `workers` threads, preserving order.
/// Sweeps are embarrassingly parallel (one simulator per point). The
/// calling thread maps items too, beside `workers.min(items.len()) − 1`
/// scoped helpers, so one worker or one item spawns no thread.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    assert!(workers > 0);
    let n = items.len();
    // LIFO work queue + per-slot results: order is restored by index, so
    // the output never depends on worker scheduling.
    let queue: std::sync::Mutex<Vec<(usize, T)>> =
        std::sync::Mutex::new(items.into_iter().enumerate().collect());
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let work = || loop {
        let item = queue.lock().expect("queue lock").pop();
        let Some((idx, item)) = item else { break };
        let r = f(item);
        *slots[idx].lock().expect("slot lock") = Some(r);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers.min(n) {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock")
                .expect("every slot filled")
        })
        .collect()
}

/// Number of sweep workers to use on this machine.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..32).collect(), 4, |x: i32| x * x);
        let expected: Vec<i32> = (0..32).map(|x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn parallel_map_single_worker_degenerates() {
        let out = parallel_map(vec![1, 2, 3], 1, |x: i32| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }
}
