//! Property tests for the energy model: time conservation, energy bounds
//! and split-invariant billing under arbitrary wake/sleep sequences.

use proptest::prelude::*;

use powerburst_energy::{
    naive_energy_mj, optimal_savings, CardSpec, EnergyReport, OptimalInput, Wnic,
};
use powerburst_sim::{SimDuration, SimTime};

#[derive(Debug, Clone, Copy)]
enum Op {
    Wake,
    Sleep,
    Rx(u64),
    Tx(u64),
}

fn ops() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Wake),
        Just(Op::Sleep),
        (10u64..3_000).prop_map(Op::Rx),
        (10u64..3_000).prop_map(Op::Tx),
    ]
}

/// Apply `op` at `t`, as the client daemon and the network would.
fn apply(w: &mut Wnic, t: SimTime, op: Op) {
    match op {
        Op::Wake => w.wake(t),
        Op::Sleep => w.sleep(t),
        Op::Rx(air_us) => {
            if w.is_listening(t) {
                w.on_receive(t, SimDuration::from_us(air_us));
            }
        }
        Op::Tx(air_us) => w.on_transmit(t, SimDuration::from_us(air_us)),
    }
}

/// Every report field as raw bits. Destructured exhaustively, so a new
/// field cannot slip past the comparison.
fn bits(r: &EnergyReport) -> [u64; 7] {
    let EnergyReport { sleep, waking, awake, rx, tx, wake_transitions, total_mj } = *r;
    [
        sleep.as_us(),
        waking.as_us(),
        awake.as_us(),
        rx.as_us(),
        tx.as_us(),
        wake_transitions,
        total_mj.to_bits(),
    ]
}

proptest! {
    /// Billing is split-invariant: probing the radio at arbitrary extra
    /// instants (`is_listening`, `is_high_power`) between the operations
    /// leaves every report field bit-identical, energy included.
    #[test]
    fn extra_probes_leave_the_report_bit_identical(
        steps in prop::collection::vec(
            (1u64..50_000, ops(), prop::collection::vec((0u64..50_000, any::<bool>()), 0..4)),
            1..80,
        ),
    ) {
        let spec = CardSpec::WAVELAN_DSSS;
        let mut plain = Wnic::new(spec);
        let mut probed = Wnic::new(spec);
        let mut t = SimTime::ZERO;
        for (dt, op, probes) in steps {
            let mut offsets: Vec<(u64, bool)> =
                probes.into_iter().map(|(off, kind)| (off % dt, kind)).collect();
            offsets.sort_unstable();
            for (off, listening) in offsets {
                let at = t + SimDuration::from_us(off);
                if listening {
                    probed.is_listening(at);
                } else {
                    probed.is_high_power(at);
                }
            }
            t += SimDuration::from_us(dt);
            apply(&mut plain, t, op);
            apply(&mut probed, t, op);
        }
        let end = t + SimDuration::from_ms(1);
        prop_assert_eq!(bits(&probed.finish(end)), bits(&plain.finish(end)));
    }

    /// Sleep + waking + awake always equals the observed duration, and the
    /// total energy lies between the all-sleep and all-transmit bounds.
    #[test]
    fn timeline_conserves_time_and_bounds_energy(
        steps in prop::collection::vec((1u64..50_000, ops()), 1..80),
    ) {
        let spec = CardSpec::WAVELAN_DSSS;
        let mut w = Wnic::new(spec);
        let mut t = SimTime::ZERO;
        let mut rx_tx_extra = 0.0f64;
        for (dt, op) in steps {
            t += SimDuration::from_us(dt);
            match op {
                Op::Wake => w.wake(t),
                Op::Sleep => w.sleep(t),
                Op::Rx(air_us) => {
                    if w.is_listening(t) {
                        w.on_receive(t, SimDuration::from_us(air_us));
                        rx_tx_extra +=
                            (spec.recv_mw - spec.idle_mw) * air_us as f64 / 1e6;
                    }
                }
                Op::Tx(air_us) => {
                    w.on_transmit(t, SimDuration::from_us(air_us));
                    rx_tx_extra += (spec.xmit_mw - spec.idle_mw) * air_us as f64 / 1e6;
                }
            }
        }
        let end = t + SimDuration::from_ms(1);
        let r = w.finish(end);
        prop_assert_eq!(r.duration(), end.since(SimTime::ZERO));
        let dur_s = r.duration().as_secs_f64();
        let lower = spec.sleep_mw * dur_s;
        let upper = spec.idle_mw * dur_s + rx_tx_extra + 1e-6;
        prop_assert!(r.total_mj >= lower - 1e-6, "{} < {}", r.total_mj, lower);
        prop_assert!(r.total_mj <= upper, "{} > {}", r.total_mj, upper);
    }

    /// More sleep time can only lower total energy, holding rx/tx at zero.
    #[test]
    fn sleep_is_monotone_cheaper(split_ms in 1u64..999) {
        let spec = CardSpec::WAVELAN_DSSS;
        let total = SimTime::from_ms(1_000);
        let mut a = Wnic::new(spec);
        a.sleep(SimTime::from_ms(split_ms));
        let ra = a.finish(total);
        let mut b = Wnic::new(spec);
        b.sleep(SimTime::from_ms(split_ms / 2));
        let rb = b.finish(total);
        prop_assert!(rb.total_mj <= ra.total_mj + 1e-9);
    }

    /// The optimal formula is monotone: more bytes ⇒ less savings, and the
    /// result is always within [0, max_savings].
    #[test]
    fn optimal_is_monotone_in_load(
        bytes_a in 0u64..50_000_000,
        extra in 1u64..10_000_000,
        secs in 10u64..600,
    ) {
        let spec = CardSpec::WAVELAN_DSSS;
        let mk = |bytes| optimal_savings(&spec, OptimalInput {
            stream_bytes: bytes,
            total: SimDuration::from_secs(secs),
            effective_bw_bytes_per_s: 500_000.0,
        });
        let a = mk(bytes_a);
        let b = mk(bytes_a + extra);
        prop_assert!(b.saved <= a.saved + 1e-12);
        prop_assert!(a.saved >= -1e-12);
        prop_assert!(a.saved <= spec.max_savings_fraction() + 1e-12);
    }

    /// Naive energy grows with rx/tx airtime.
    #[test]
    fn naive_energy_monotone(rx_ms in 0u64..1_000, tx_ms in 0u64..1_000) {
        let spec = CardSpec::WAVELAN_DSSS;
        let total = SimDuration::from_secs(10);
        let base = naive_energy_mj(&spec, total, SimDuration::ZERO, SimDuration::ZERO);
        let with = naive_energy_mj(
            &spec,
            total,
            SimDuration::from_ms(rx_ms),
            SimDuration::from_ms(tx_ms),
        );
        prop_assert!(with >= base - 1e-9);
    }
}
