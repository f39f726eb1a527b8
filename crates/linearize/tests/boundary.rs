//! The `MAX_EVENTS` memoization boundary: the checker's failure memo keys
//! on a `u64` done-bitmask, so histories are capped at exactly 64 events.
//! A 64-event history must be checked normally; 65 events must be rejected
//! up front with a clear message, never silently truncated.

use linearize::{check_history, check_history_from, Event, Op, MAX_EVENTS};

fn seq(op: Op, result: bool, t: u64) -> Event {
    Event {
        op,
        result,
        start: 2 * t,
        end: 2 * t + 1,
    }
}

/// `n` sequential events alternating successful insert/remove — always
/// linearizable starting from the empty set.
fn alternating(n: usize) -> Vec<Event> {
    (0..n)
        .map(|i| {
            let op = if i % 2 == 0 { Op::Insert } else { Op::Remove };
            seq(op, true, i as u64)
        })
        .collect()
}

#[test]
fn exactly_max_events_is_checked_not_rejected() {
    assert_eq!(MAX_EVENTS, 64, "memo bitmask is a u64");
    let ok = alternating(MAX_EVENTS);
    check_history(&ok).expect("64 valid events must pass");

    // And a 64-event history with a genuine violation must still be
    // *checked* (and fail on the merits, not on length).
    let mut bad = alternating(MAX_EVENTS);
    bad[MAX_EVENTS - 1].result = false; // final remove "fails" while present
    let err = check_history(&bad).expect_err("violation at the boundary must be found");
    assert!(
        !err.contains("history too long"),
        "64 events must not trip the length guard: {err}"
    );
}

#[test]
fn one_past_the_boundary_is_rejected_with_a_clear_error() {
    let too_long = alternating(MAX_EVENTS + 1);
    let err = check_history(&too_long).expect_err("65 events must be rejected");
    assert!(err.contains("history too long"), "unexpected error: {err}");
    assert!(
        err.contains("65"),
        "error should name the offending length: {err}"
    );
}

#[test]
fn boundary_holds_for_initially_present_histories_too() {
    // Start from {present}: remove first, then insert, alternating.
    let ok: Vec<Event> = (0..MAX_EVENTS)
        .map(|i| {
            let op = if i % 2 == 0 { Op::Remove } else { Op::Insert };
            seq(op, true, i as u64)
        })
        .collect();
    check_history_from(&ok, true).expect("64 valid events from a present key must pass");
    let long: Vec<Event> = (0..MAX_EVENTS + 1)
        .map(|i| seq(Op::Contains, true, i as u64))
        .collect();
    assert!(check_history_from(&long, true).is_err());
}

#[test]
fn backtracking_at_the_boundary_terminates() {
    // Exactly 64 events where the final 8 fully overlap: 56 sequential
    // alternating insert/remove (key ends absent), then 8 concurrent
    // contains. One contains=true among them is impossible (nothing ever
    // re-inserts), so the checker must exhaust the overlap window — with
    // the (done-mask, present) failure memo that's cheap even at the full
    // 64-event cap.
    let mut events = alternating(MAX_EVENTS - 8);
    for i in 0..8 {
        events.push(Event {
            op: Op::Contains,
            result: i == 0, // one impossible contains=true among 7 false
            start: 1000,
            end: 2000,
        });
    }
    assert_eq!(events.len(), MAX_EVENTS);
    let err = check_history(&events).expect_err("contains=true on an absent key");
    assert!(!err.contains("history too long"), "{err}");

    // Flip it to all-false: linearizable, still at the full 64 events.
    events[MAX_EVENTS - 8].result = false;
    check_history(&events).expect("all-false contains must linearize");
}
