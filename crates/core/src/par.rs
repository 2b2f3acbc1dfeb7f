//! The one worker pool behind every profiling sweep and accuracy
//! evaluation: an ordered parallel map.
//!
//! Workers claim the indices of a range off an atomic cursor and never
//! claim past its end, so a caller that runs one range at a time (the
//! verdict rounds of an evaluation) decides exactly which items run.
//! Each worker builds its state once and keeps it across runs. Results
//! reach the caller's `commit` strictly in index order, on the calling
//! thread, and a run stops at its first failure in index order: an
//! item's error or panic, or a commit error. What a run commits and
//! returns therefore never depends on the thread count or the schedule,
//! provided each item's result depends only on its index.

use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// What a run returns: `Err` with the panic payload when the first
/// failure in index order was a panic, else the first error, if any.
pub(crate) type Outcome<E> = std::thread::Result<Result<(), E>>;

/// A pool of workers, each with a lazily built state kept across runs.
pub(crate) struct Pool<S, F> {
    states: Vec<Option<S>>,
    make_state: F,
}

impl<S: Send, F: Fn() -> S + Sync> Pool<S, F> {
    /// A pool of `threads` workers (`0` = the machine's available
    /// parallelism) whose states `make_state` builds.
    pub(crate) fn new(threads: usize, make_state: F) -> Self {
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        Self {
            states: (0..threads).map(|_| None).collect(),
            make_state,
        }
    }

    /// Runs `work(state, i)` for each `i` in `range` and hands each
    /// result to `commit(i, result)` in index order. With one worker, or
    /// one item, everything runs inline on the calling thread.
    pub(crate) fn run<T: Send, E: Send>(
        &mut self,
        range: Range<usize>,
        work: impl Fn(&mut S, usize) -> Result<T, E> + Sync,
        mut commit: impl FnMut(usize, T) -> Result<(), E>,
    ) -> Outcome<E> {
        let Self { states, make_state } = self;
        let make_state = &*make_state;
        let attempt = |slot: &mut Option<S>, i: usize| {
            catch_unwind(AssertUnwindSafe(|| {
                work(slot.get_or_insert_with(make_state), i)
            }))
        };
        // Commits item `i`'s result; `Some` ends the run.
        let mut deliver = |i, result: std::thread::Result<Result<T, E>>| match result {
            Ok(Ok(value)) => commit(i, value).err().map(|e| Ok(Err(e))),
            Ok(Err(e)) => Some(Ok(Err(e))),
            Err(panic) => Some(Err(panic)),
        };
        let workers = states.len().min(range.len());
        if workers <= 1 {
            for i in range {
                if let Some(stop) = deliver(i, attempt(&mut states[0], i)) {
                    return stop;
                }
            }
            return Ok(Ok(()));
        }
        let end = range.end;
        let cursor = AtomicUsize::new(range.start);
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let handles: Vec<_> = states[..workers]
                .iter_mut()
                .map(|slot| {
                    let (tx, cursor, attempt) = (tx.clone(), &cursor, &attempt);
                    scope.spawn(move || loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= end {
                            break;
                        }
                        let result = attempt(slot, i);
                        let failed = !matches!(result, Ok(Ok(_)));
                        if failed {
                            // Every lower index is claimed already; nothing
                            // above this one can change the outcome.
                            // ordering: the cursor publishes no data (results
                            // travel over the channel), and an RMW always
                            // reads the latest value, so no claim passes it.
                            cursor.fetch_max(end, Ordering::Relaxed);
                        }
                        // A closed channel means the run has stopped.
                        if tx.send((i, result)).is_err() || failed {
                            break;
                        }
                    })
                })
                .collect();
            drop(tx);
            let outcome = 'commit: {
                let mut pending = BTreeMap::new();
                let mut next = range.start;
                for (i, result) in rx {
                    pending.insert(i, result);
                    while let Some(result) = pending.remove(&next) {
                        if let Some(stop) = deliver(next, result) {
                            break 'commit stop;
                        }
                        next += 1;
                    }
                }
                Ok(Ok(()))
            };
            // An explicit join waits until each thread has exited and
            // handed its allocator arena back, so the next run's workers
            // reuse it instead of growing the heap; the scope's implicit
            // wait returns before that.
            for handle in handles {
                handle.join()?;
            }
            outcome
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Runs `work` over `0..n` on a fresh pool and returns the outcome
    /// plus the committed indices.
    fn run_all(
        threads: usize,
        n: usize,
        work: impl Fn(&mut (), usize) -> Result<usize, String> + Sync,
    ) -> (Outcome<String>, Vec<usize>) {
        let mut committed = Vec::new();
        let outcome = Pool::new(threads, || ()).run(0..n, work, |i, v| {
            assert_eq!(i, v);
            committed.push(i);
            Ok(())
        });
        (outcome, committed)
    }

    #[test]
    fn commits_every_item_in_index_order() {
        for threads in [1, 3] {
            let (outcome, committed) = run_all(threads, 50, |_, i| Ok(i));
            assert!(matches!(outcome, Ok(Ok(()))));
            assert_eq!(committed, (0..50).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_panic_stops_the_run_after_the_items_before_it() {
        for threads in [1, 3] {
            let (outcome, committed) = run_all(threads, 20, |_, i| {
                assert_ne!(i, 7, "item 7 fails");
                Ok(i)
            });
            let payload = outcome.expect_err("the panic is reported");
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.contains("item 7 fails"), "{message}");
            assert_eq!(committed, (0..7).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn the_lowest_failing_index_wins() {
        // With several workers, item 9 fails first: item 4 waits for it.
        let (tx, rx) = mpsc::channel();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        for threads in [1, 3] {
            let (outcome, committed) = run_all(threads, 20, |_, i| match i {
                4 if threads > 1 => {
                    rx.lock().expect("unpoisoned").recv().expect("item 9 ran");
                    Err("item 4".into())
                }
                4 => Err("item 4".into()),
                9 => {
                    let _ = tx.lock().expect("unpoisoned").send(());
                    Err("item 9".into())
                }
                _ => Ok(i),
            });
            assert_eq!(outcome.ok(), Some(Err("item 4".to_string())));
            assert_eq!(committed, (0..4).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn workers_stay_in_range_and_keep_their_state() {
        let built = AtomicUsize::new(0);
        let mut pool = Pool::new(3, || {
            built.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        });
        let mut committed = Vec::new();
        for range in [0..2, 2..5, 5..13] {
            let bounds = range.clone();
            let outcome = pool.run(
                range,
                |seen: &mut Vec<usize>, i| {
                    assert!(bounds.contains(&i), "{i} claimed outside {bounds:?}");
                    seen.push(i);
                    Ok::<_, ()>(i)
                },
                |_, i| {
                    committed.push(i);
                    Ok(())
                },
            );
            assert!(matches!(outcome, Ok(Ok(()))));
        }
        assert_eq!(committed, (0..13).collect::<Vec<_>>());
        assert!(built.load(Ordering::Relaxed) <= 3);
        let seen: usize = pool.states.iter().flatten().map(Vec::len).sum();
        assert_eq!(seen, 13, "every item ran on a kept state");
    }
}
