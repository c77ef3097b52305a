//! Ordered fork/join over an indexed task range — the morsel dispatch
//! primitive shared by the query executor and the paged-storage reader.
//!
//! The contract mirrors `mc::campaign_parallel`: tasks are assigned to
//! workers by static round-robin (worker `w` takes tasks `w`, `w + W`,
//! `w + 2W`, …), results land in task order, and the caller merges them
//! in that order — so any merge the caller performs observes the same
//! sequence at every worker count, including `W = 1`, which runs the
//! identical code on the calling thread. That is the whole bit-identity
//! argument: parallelism only changes *when* a task runs, never what it
//! computes or where its result sits in the merge.

/// Run `n` independent tasks and return their results in task order.
///
/// `threads <= 1` (or `n <= 1`) executes in-line on the calling thread.
/// Otherwise tasks are distributed round-robin over `min(threads, n)`
/// scoped workers. A panicking task propagates as a panic on the caller
/// (the same surface as a panic in a sequential loop).
pub(crate) fn par_map_ordered<T, F>(threads: usize, n: usize, f: F) -> Vec<crate::Result<T>>
where
    T: Send,
    F: Fn(usize) -> crate::Result<T> + Sync,
{
    par_map_items(threads, 0..n, f)
}

/// [`par_map_ordered`] over tasks that each *own* an input — the paged
/// reader's pages, each holding the `&mut` slice of the column buffer it
/// decodes into. Same round-robin assignment, same task-order results.
pub(crate) fn par_map_items<I, T, F>(
    threads: usize,
    items: impl ExactSizeIterator<Item = I>,
    f: F,
) -> Vec<crate::Result<T>>
where
    I: Send,
    T: Send,
    F: Fn(I) -> crate::Result<T> + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.map(&f).collect();
    }
    let workers = threads.min(n);
    let mut dealt: Vec<Vec<(usize, I)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, item) in items.enumerate() {
        dealt[i % workers].push((i, item));
    }
    let mut out: Vec<Option<crate::Result<T>>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = dealt
            .into_iter()
            .map(|hand| {
                let f = &f;
                scope.spawn(move || -> Vec<(usize, crate::Result<T>)> {
                    hand.into_iter().map(|(i, item)| (i, f(item))).collect()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("morsel worker panicked") {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter()
        .map(|o| o.expect("every task index filled"))
        .collect()
}

/// Collapse ordered task results to the first (lowest-index) error, or
/// the full result vector. Lowest-index-wins is exactly the error a
/// sequential left-to-right loop would have surfaced first.
pub(crate) fn first_error<T>(results: Vec<crate::Result<T>>) -> crate::Result<Vec<T>> {
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

/// Split `lanes` into `[start, end)` ranges of at most `morsel_rows`
/// lanes. `morsel_rows` must already be 64-aligned (see
/// [`crate::query::ExecConfig::aligned_morsel_rows`]) so every morsel
/// boundary falls on a null-mask word boundary.
pub(crate) fn morsel_ranges(lanes: usize, morsel_rows: usize) -> Vec<(usize, usize)> {
    debug_assert!(morsel_rows > 0 && morsel_rows.is_multiple_of(64));
    (0..lanes.div_ceil(morsel_rows))
        .map(|m| (m * morsel_rows, ((m + 1) * morsel_rows).min(lanes)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_results_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let got = first_error(par_map_ordered(threads, 10, |i| Ok(i * i))).unwrap();
            assert_eq!(got, (0..10).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn lowest_index_error_wins() {
        for threads in [1, 2, 8] {
            let err = first_error(par_map_ordered(threads, 10, |i| {
                if i >= 3 {
                    Err(crate::McdbError::invalid_plan(format!("task {i}")))
                } else {
                    Ok(i)
                }
            }))
            .unwrap_err();
            assert_eq!(err, crate::McdbError::invalid_plan("task 3"));
        }
    }

    #[test]
    fn morsel_ranges_cover_and_align() {
        assert_eq!(morsel_ranges(0, 64), Vec::<(usize, usize)>::new());
        assert_eq!(morsel_ranges(1, 64), vec![(0, 1)]);
        assert_eq!(morsel_ranges(130, 64), vec![(0, 64), (64, 128), (128, 130)]);
        let r = morsel_ranges(100_000, 4096);
        assert_eq!(r.first(), Some(&(0, 4096)));
        assert_eq!(r.last(), Some(&(98304, 100_000)));
        assert!(r.windows(2).all(|w| w[0].1 == w[1].0));
    }
}
