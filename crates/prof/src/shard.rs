//! The ordered work-queue runner behind every sharded driver.
//!
//! The fleet engine and the campaign matrix both split `0..n`
//! independent units over worker threads the same way: workers claim
//! the next index from one atomic counter, keep shard-local state, and
//! the results are put back in index order before anything is merged.
//! [`shard_map`] is that rule, written once.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `work(&mut state, i)` for every `i` in `0..n` on scoped worker
/// threads and returns each worker's final state plus the results in
/// index order.
///
/// `min(threads, n)` workers are spawned (`threads` of 0 counts as 1).
/// Each tags its thread's profiler collector with its shard id
/// ([`set_shard`](crate::set_shard)), builds its state with
/// `init(shard)` on its own thread — so thread-local profiler state and
/// per-shard observers stay per thread — and then claims indices from
/// one shared atomic counter until none are left. Which worker runs an
/// index depends on scheduling; the returned results do not. When
/// `work` is a pure function of its index, the results are the same
/// for any thread count.
///
/// # Errors
///
/// Returns the first `Err` a worker's `work` returned, or a message if
/// `init` or `work` panicked. An `Err` stops all workers from claiming
/// further indices; a panic ends only its own worker.
pub fn shard_map<S, T>(
    threads: usize,
    n: usize,
    init: impl Fn(usize) -> S + Sync,
    work: impl Fn(&mut S, usize) -> Result<T, String> + Sync,
) -> Result<(Vec<S>, Vec<T>), String>
where
    S: Send,
    T: Send,
{
    let workers = threads.max(1).min(n);
    let next = AtomicUsize::new(0);
    let (next, init, work) = (&next, &init, &work);
    let joined: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|shard| {
                s.spawn(move || -> Result<(S, Vec<(usize, T)>), String> {
                    crate::set_shard(u16::try_from(shard).unwrap_or(u16::MAX));
                    let mut state = init(shard);
                    let mut done = Vec::with_capacity(n / workers + 1);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return Ok((state, done));
                        }
                        match work(&mut state, i) {
                            Ok(t) => done.push((i, t)),
                            Err(e) => {
                                next.store(n, Ordering::Relaxed);
                                return Err(e);
                            }
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut states = Vec::with_capacity(workers);
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    for shard in joined {
        let (state, done) = shard.map_err(|payload| panic_message(payload.as_ref()))??;
        states.push(state);
        for (i, t) in done {
            slots[i] = Some(t);
        }
    }
    let results = slots
        .into_iter()
        .map(|t| t.expect("every index below n was claimed by a worker that finished"))
        .collect();
    Ok((states, results))
}

/// The error a panicking worker turns into.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let what = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    format!("worker panicked: {what}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn results_come_back_in_index_order_at_any_thread_count() {
        for threads in [0, 1, 2, 3, 8] {
            for n in [0, 1, 2, 13] {
                let (states, results) = shard_map(threads, n, |_| (), |(), i| Ok(i * i)).unwrap();
                let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(results, want, "threads {threads}, n {n}");
                assert_eq!(states.len(), threads.max(1).min(n));
            }
        }
    }

    #[test]
    fn init_runs_once_per_spawned_worker() {
        for threads in [1, 3, 8] {
            let inits = Mutex::new(Vec::new());
            let (states, _) = shard_map(
                threads,
                5,
                |shard| {
                    inits.lock().unwrap().push(shard);
                    (shard, 0usize)
                },
                |(_, count), i| {
                    *count += 1;
                    Ok(i)
                },
            )
            .unwrap();
            let mut inits = inits.into_inner().unwrap();
            inits.sort_unstable();
            let workers = threads.min(5);
            assert_eq!(inits, (0..workers).collect::<Vec<_>>());
            // Every state is its own worker's, and together they ran each
            // index once.
            let mut shards: Vec<usize> = states.iter().map(|&(shard, _)| shard).collect();
            shards.sort_unstable();
            assert_eq!(shards, inits);
            assert_eq!(states.iter().map(|&(_, c)| c).sum::<usize>(), 5);
        }
    }

    #[test]
    fn a_panicking_worker_returns_err() {
        let result = shard_map(
            3,
            20,
            |_| (),
            |(), i| {
                assert!(i != 7, "unit {i} is broken");
                Ok(i)
            },
        );
        let err = result.unwrap_err();
        assert!(err.contains("worker panicked"), "{err}");
        assert!(err.contains("unit 7 is broken"), "{err}");
    }

    #[test]
    fn an_err_from_work_is_returned() {
        let result: Result<(Vec<()>, Vec<usize>), String> = shard_map(
            2,
            9,
            |_| (),
            |(), i| {
                if i == 4 {
                    Err(format!("unit {i} failed"))
                } else {
                    Ok(i)
                }
            },
        );
        assert_eq!(result.unwrap_err(), "unit 4 failed");
    }
}
