//! The JSONL trace codec over every event variant: random records survive
//! `from_jsonl(to_jsonl(r))` unchanged and re-serialize to the same bytes,
//! and out-of-range fields are refused with their line number.

use mashup_sim::trace::{from_jsonl, to_jsonl};
use mashup_sim::{KillReason, TraceEvent, TraceRecord};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Random field values that stress the printer: floats mix `-0.0`, `0.0`,
/// `1e-7` and `1e300` with arbitrary finite bit patterns; strings mix
/// quotes, backslashes, control characters and non-ASCII text.
struct Draw(StdRng);

impl Draw {
    fn f64(&mut self) -> f64 {
        const EDGES: [f64; 6] = [-0.0, 0.0, 1e-7, 1e300, 0.1, -2.5];
        match self.0.gen_range(0..3u32) {
            0 => EDGES[self.0.gen_range(0..EDGES.len())],
            1 => self.0.gen::<f64>() * 1e4,
            _ => Some(f64::from_bits(self.0.gen()))
                .filter(|x| x.is_finite())
                .unwrap_or(1.5),
        }
    }

    fn u64(&mut self) -> u64 {
        if self.0.gen() {
            self.0.gen()
        } else {
            self.0.gen_range(0..100u64)
        }
    }

    fn usize(&mut self) -> usize {
        self.u64() as usize
    }

    fn bool(&mut self) -> bool {
        self.0.gen()
    }

    fn text(&mut self) -> String {
        const PIECES: [&str; 10] = [
            "a",
            "task-7",
            "\"",
            "\\",
            "\n",
            "\r\t",
            "\u{1}",
            "\u{1f}\u{8}",
            "é",
            "\u{1F600}",
        ];
        let n = self.0.gen_range(0..6usize);
        (0..n)
            .map(|_| PIECES[self.0.gen_range(0..PIECES.len())])
            .collect()
    }
}

/// A random instance of the variant declared after `prev`'s, wrapping from
/// the last back to `Dispatch`; walking from `Dispatch` visits every
/// variant. The `match` has no `_` arm, so a new variant does not compile
/// until it joins the cycle.
fn next_event(prev: &TraceEvent, d: &mut Draw) -> TraceEvent {
    match prev {
        TraceEvent::Dispatch { .. } => TraceEvent::ResourceGrant {
            resource: d.text(),
            in_use: d.usize(),
            capacity: d.usize(),
        },
        TraceEvent::ResourceGrant { .. } => TraceEvent::TransferStart {
            link: d.text(),
            id: d.u64(),
            bytes: d.f64(),
        },
        TraceEvent::TransferStart { .. } => TraceEvent::TransferEnd {
            link: d.text(),
            id: d.u64(),
        },
        TraceEvent::TransferEnd { .. } => TraceEvent::FnStart {
            id: d.u64(),
            code: d.text(),
            cold: d.bool(),
            latency_secs: d.f64(),
            ready_secs: d.f64(),
            deadline_secs: d.f64(),
        },
        TraceEvent::FnStart { .. } => TraceEvent::FnEnd {
            id: d.u64(),
            billed_secs: d.f64(),
        },
        TraceEvent::FnEnd { .. } => TraceEvent::FnKill {
            id: d.u64(),
            reason: if d.bool() {
                KillReason::Watchdog
            } else {
                KillReason::Injected
            },
            billed_secs: d.f64(),
        },
        TraceEvent::FnKill { .. } => TraceEvent::FnPrewarm {
            code: d.text(),
            latency_secs: d.f64(),
            warm_secs: d.f64(),
            expires_secs: d.f64(),
        },
        TraceEvent::FnPrewarm { .. } => TraceEvent::SegmentStart {
            task: d.text(),
            chain: d.0.gen(),
            inv: d.u64(),
            resume: d.bool(),
            mem_gb: d.f64(),
        },
        TraceEvent::SegmentStart { .. } => TraceEvent::Checkpoint {
            task: d.text(),
            chain: d.0.gen(),
            inv: d.u64(),
            bytes: d.f64(),
            remaining_secs: d.f64(),
        },
        TraceEvent::Checkpoint { .. } => TraceEvent::CheckpointResume {
            task: d.text(),
            chain: d.0.gen(),
            inv: d.u64(),
            remaining_secs: d.f64(),
        },
        TraceEvent::CheckpointResume { .. } => TraceEvent::VmCompStart {
            task: d.text(),
            sub: d.usize(),
            node: d.usize(),
            load: d.usize(),
            mem_gb: d.f64(),
            factor: d.f64(),
            thrash: d.bool(),
        },
        TraceEvent::VmCompStart { .. } => TraceEvent::VmCompEnd {
            task: d.text(),
            sub: d.usize(),
            node: d.usize(),
        },
        TraceEvent::VmCompEnd { .. } => TraceEvent::BillingStart { nodes: d.usize() },
        TraceEvent::BillingStart { .. } => TraceEvent::BillingStop {
            node_seconds: d.f64(),
        },
        TraceEvent::BillingStop { .. } => TraceEvent::StoreGet {
            bytes: d.f64(),
            requests: d.u64(),
            retried: d.bool(),
        },
        TraceEvent::StoreGet { .. } => TraceEvent::StorePut {
            bytes: d.f64(),
            requests: d.u64(),
            replicas: d.u64(),
        },
        TraceEvent::StorePut { .. } => TraceEvent::ObjectPut {
            key: d.text(),
            bytes: d.f64(),
        },
        TraceEvent::ObjectPut { .. } => TraceEvent::ObjectRemove { key: d.text() },
        TraceEvent::ObjectRemove { .. } => TraceEvent::PhaseStart {
            phase: d.usize(),
            tasks: d.usize(),
        },
        TraceEvent::PhaseStart { .. } => TraceEvent::TaskStart {
            task: d.text(),
            phase: d.usize(),
            platform: d.text(),
            components: d.usize(),
        },
        TraceEvent::TaskStart { .. } => TraceEvent::TaskEnd { task: d.text() },
        TraceEvent::TaskEnd { .. } => TraceEvent::PdcDecision {
            task: d.text(),
            t_vm_secs: d.f64(),
            t_serverless_secs: d.f64(),
            platform: d.text(),
            forced: d.text(),
        },
        TraceEvent::PdcDecision { .. } => TraceEvent::PdcCache {
            section: d.text(),
            hit: d.bool(),
        },
        TraceEvent::PdcCache { .. } => TraceEvent::SpotPreempt {
            id: d.u64(),
            sub: d.usize(),
            node: d.usize(),
        },
        TraceEvent::SpotPreempt { .. } => TraceEvent::FaultInjected {
            id: d.u64(),
            kind: d.text(),
            until_secs: d.f64(),
            magnitude: d.f64(),
        },
        TraceEvent::FaultInjected { .. } => TraceEvent::FaultRetry {
            id: d.u64(),
            op: d.text(),
        },
        TraceEvent::FaultRetry { .. } => TraceEvent::CompRetry {
            id: d.u64(),
            task: d.text(),
            sub: d.usize(),
            node: d.usize(),
        },
        TraceEvent::CompRetry { .. } => TraceEvent::Replan {
            phase: d.usize(),
            reason: d.text(),
            nodes_before: d.usize(),
            nodes_after: d.usize(),
            moved: d.usize(),
        },
        TraceEvent::Replan { .. } => TraceEvent::SpotBill {
            sub: d.usize(),
            node: d.usize(),
            node_seconds: d.f64(),
            dollars: d.f64(),
        },
        TraceEvent::SpotBill { .. } => TraceEvent::Dispatch { events: d.u64() },
    }
}

/// One full cycle of random events, one per variant, starting at `Dispatch`.
fn one_of_each(d: &mut Draw) -> Vec<TraceEvent> {
    let mut events = vec![TraceEvent::Dispatch { events: d.u64() }];
    loop {
        let next = next_event(events.last().expect("non-empty"), d);
        if matches!(next, TraceEvent::Dispatch { .. }) {
            return events;
        }
        events.push(next);
    }
}

#[test]
fn the_cycle_visits_each_variant_once() {
    let events = one_of_each(&mut Draw(StdRng::seed_from_u64(1)));
    let kinds: HashSet<_> = events.iter().map(std::mem::discriminant).collect();
    assert_eq!(
        kinds.len(),
        events.len(),
        "a variant repeats before the cycle closes"
    );
    // `TraceEvent` has 30 variants.
    assert_eq!(events.len(), 30);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_variant_round_trips_bit_for_bit(seed in any::<u64>()) {
        let mut d = Draw(StdRng::seed_from_u64(seed));
        let records: Vec<TraceRecord> = one_of_each(&mut d)
            .into_iter()
            .map(|event| TraceRecord {
                seq: d.u64(),
                t_secs: d.f64(),
                event,
            })
            .collect();
        let text = to_jsonl(&records);
        let parsed = from_jsonl(&text).expect("written traces parse");
        prop_assert_eq!(&parsed, &records);
        // `==` treats -0.0 as 0.0; the bytes pin the sign and every bit.
        prop_assert_eq!(to_jsonl(&parsed), text);
    }
}

#[test]
fn out_of_range_chain_is_refused_with_its_line() {
    let task = || "t".to_string();
    for event in [
        TraceEvent::SegmentStart {
            task: task(),
            chain: 7,
            inv: 1,
            resume: false,
            mem_gb: 1.0,
        },
        TraceEvent::Checkpoint {
            task: task(),
            chain: 7,
            inv: 1,
            bytes: 1.0,
            remaining_secs: 2.0,
        },
        TraceEvent::CheckpointResume {
            task: task(),
            chain: 7,
            inv: 1,
            remaining_secs: 2.0,
        },
    ] {
        let ok = TraceRecord {
            seq: 0,
            t_secs: 0.0,
            event: TraceEvent::TaskEnd { task: task() },
        };
        let bad = TraceRecord {
            seq: 1,
            t_secs: 0.5,
            event,
        };
        let text = to_jsonl(&[ok, bad]).replace("\"chain\":7", "\"chain\":4294967296");
        let err = from_jsonl(&text).expect_err("chain does not fit in u32");
        assert!(err.starts_with("line 2:") && err.contains("chain"), "{err}");
    }
}
