//! Property tests for correlation streaming sessions through a real
//! `Service`: feeding a corpus in arbitrary chunkings is
//! indistinguishable from feeding it in one shot (the correlation twin
//! of the AP feed-in-chunks property), the scores always agree with the
//! exact software reference, and the billing watermark reconciles —
//! every tenant is billed exactly the stream-slots it completed, once.

use memcim_bits::BitVec;
use memcim_mvp::correlation::{correlation_reference, rows_needed};
use memcim_mvp::MvpError;
use memcim_serve::{ServeConfig, ServeError, Service};
use proptest::prelude::*;

const ROWS: usize = 16;
const BANKS: usize = 2;
const BANK_COLS: usize = 32;

fn service() -> Service {
    Service::start(ServeConfig::default().with_workers(2).with_mvp_geometry(ROWS, BANKS, BANK_COLS))
}

/// One stream's bits over `lo..hi`, as a window column block.
fn window(data: &[Vec<bool>], lo: usize, hi: usize) -> Vec<BitVec> {
    data.iter().map(|stream| stream[lo..hi].iter().copied().collect()).collect()
}

/// Splits `steps` into `chunks` non-empty contiguous spans.
fn boundaries(steps: usize, chunks: usize) -> Vec<(usize, usize)> {
    (0..chunks)
        .map(|k| (k * steps / chunks, (k + 1) * steps / chunks))
        .filter(|(lo, hi)| hi > lo)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tenant 1 feeds the whole corpus as one window; tenant 2 feeds
    /// the same corpus in an entropy-chosen chunking. Both sessions
    /// must report identical scores and detections — equal to the
    /// software reference — and each tenant's bill must equal exactly
    /// the stream-slots its session completed.
    #[test]
    fn chunked_feed_is_one_shot_feed_and_the_books_reconcile(
        streams in 2usize..=10,
        steps in 1usize..=BANKS * BANK_COLS,
        chunk_entropy in any::<u64>(),
        threshold in 0u64..64,
        bits in proptest::collection::vec(any::<bool>(), 1..256),
    ) {
        let data: Vec<Vec<bool>> = (0..streams)
            .map(|i| (0..steps).map(|t| bits[(i * steps + t) % bits.len()]).collect())
            .collect();
        let full: Vec<BitVec> = window(&data, 0, steps);
        let reference = correlation_reference(&full).expect("well-formed corpus");

        let service = service();

        // One shot.
        let one = service.open_corr_session(1, streams, threshold).expect("opens");
        let report = service.corr_feed(1, one, &full).expect("feeds");
        prop_assert_eq!(report.events, (streams * steps) as u64);
        prop_assert!(report.energy.as_joules() > 0.0, "the feed cost real joules");
        let one_shot = service.corr_finish(1, one).expect("finishes");

        // Chunked, same corpus.
        let chunks = 1 + (chunk_entropy % steps.min(5) as u64) as usize;
        let spans = boundaries(steps, chunks);
        let two = service.open_corr_session(2, streams, threshold).expect("opens");
        let mut last_events = 0;
        for &(lo, hi) in &spans {
            let report = service.corr_feed(2, two, &window(&data, lo, hi)).expect("feeds");
            prop_assert_eq!(report.events, (streams * hi) as u64, "cumulative stream-slots");
            prop_assert!(report.events > last_events);
            last_events = report.events;
        }
        let chunked = service.corr_finish(2, two).expect("finishes");

        prop_assert_eq!(&one_shot.scores, &reference, "one-shot ≡ software reference");
        prop_assert_eq!(&chunked.scores, &one_shot.scores, "chunked ≡ one-shot");
        prop_assert_eq!(&chunked.correlated, &one_shot.correlated);
        prop_assert_eq!(chunked.events, one_shot.events);
        prop_assert_eq!(one_shot.events, (streams * steps) as u64);
        prop_assert_eq!(one_shot.threshold, threshold);

        // The watermark bills each slot exactly once, per tenant.
        let bill_one = service.tenant_usage(1).expect("tenant 1 ran");
        prop_assert_eq!(bill_one.corr_events, (streams * steps) as u64);
        prop_assert_eq!(bill_one.corr_jobs, 2, "one feed + one finish");
        let bill_two = service.tenant_usage(2).expect("tenant 2 ran");
        prop_assert_eq!(bill_two.corr_events, (streams * steps) as u64);
        prop_assert_eq!(bill_two.corr_jobs, spans.len() as u64 + 1, "feeds + finish");
        prop_assert!(
            bill_two.mvp.energy().as_joules() > 0.0,
            "engine work lands on the MVP ledger"
        );

        service.close_session(1, one).expect("closes");
        service.close_session(2, two).expect("closes");
        prop_assert_eq!(service.session_count(), 0);
        service.shutdown();
    }

    /// A finish resets the accumulator but keeps the session: feeding
    /// the same corpus again after a finish reproduces the same report,
    /// and the watermark keeps billing each slot exactly once.
    #[test]
    fn a_finished_session_restarts_clean(
        streams in 2usize..=6,
        steps in 1usize..=32,
        bits in proptest::collection::vec(any::<bool>(), 1..128),
    ) {
        let data: Vec<Vec<bool>> = (0..streams)
            .map(|i| (0..steps).map(|t| bits[(i * steps + t) % bits.len()]).collect())
            .collect();
        let full: Vec<BitVec> = window(&data, 0, steps);

        let service = service();
        let session = service.open_corr_session(3, streams, 0).expect("opens");
        service.corr_feed(3, session, &full).expect("feeds");
        let first = service.corr_finish(3, session).expect("finishes");
        let report = service.corr_feed(3, session, &full).expect("feeds again");
        prop_assert_eq!(report.events, (streams * steps) as u64, "the counter restarted");
        let second = service.corr_finish(3, session).expect("finishes again");
        prop_assert_eq!(&second.scores, &first.scores, "a finished session restarts clean");

        let bill = service.tenant_usage(3).expect("tenant ran");
        prop_assert_eq!(bill.corr_events, 2 * (streams * steps) as u64, "both rounds billed");
        service.shutdown();
    }
}

/// `open_corr_session` admits a stream count only if its feed plans fit
/// the worker engines and, on a sharded service, every shard gets at
/// least one stream. Both refusals are typed and name the geometry; an
/// engine of exactly `rows_needed(streams)` rows is enough to feed and
/// finish with the reference answer.
#[test]
fn open_corr_session_gates_the_engine_geometry() {
    const STREAMS: usize = 12;
    let refusal = |result: Result<_, ServeError>| match result {
        Err(ServeError::Mvp(MvpError::BadInput { reason })) => reason,
        other => panic!("expected a typed BadInput refusal, got {other:?}"),
    };

    let rows = rows_needed(STREAMS);
    let exact =
        Service::start(ServeConfig::default().with_workers(2).with_mvp_geometry(rows, 2, 16));
    let reason = refusal(exact.open_corr_session(1, 16, 0));
    assert!(rows_needed(16) > rows);
    assert!(reason.contains("rows"), "the refusal names the rows: {reason}");
    assert_eq!(exact.session_count(), 0, "a refused open leaves no session");

    let data: Vec<BitVec> =
        (0..STREAMS).map(|i| (0..32).map(|t| (t * 7 + i * 3) % 5 < 2).collect()).collect();
    let session = exact.open_corr_session(1, STREAMS, 0).expect("fits exactly");
    exact.corr_feed(1, session, &data).expect("feeds");
    let outcome = exact.corr_finish(1, session).expect("finishes");
    assert_eq!(outcome.scores, correlation_reference(&data).expect("well-formed corpus"));
    exact.shutdown();

    let sharded = Service::start(
        ServeConfig::default().with_workers(4).with_mvp_geometry(ROWS, 2, 16).with_placement(4, 1),
    );
    let reason = refusal(sharded.open_corr_session(1, 3, 0));
    assert!(reason.contains("shards"), "the refusal names the shards: {reason}");
    sharded.open_corr_session(1, 4, 0).expect("one stream per shard is enough");
    sharded.shutdown();
}
