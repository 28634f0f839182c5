//! Property tests for the postmortem analyzer: for arbitrary well-formed
//! schedule/burst traces, the replay's accounting must balance and its
//! energy must stay inside physical bounds; and for arbitrary multi-client
//! traces, the indexed replay must reproduce the full scan exactly.

use bytes::Bytes;
use proptest::prelude::*;

use powerburst_core::{Schedule, ScheduleEntry};
use powerburst_energy::CardSpec;
use powerburst_net::{ports, Delivery, HostAddr, Packet, SnifferRecord, SockAddr};
use powerburst_sim::{SimDuration, SimTime};
use powerburst_trace::{analyze_client, PolicyParams, PostmortemReport, TraceIndex};

const CLIENT: HostAddr = HostAddr(100);
const PROXY: HostAddr = HostAddr(3);

fn sched_record(t_us: u64, seq: u64, rp_ms: u64, dur_ms: u64, interval_ms: u64) -> SnifferRecord {
    let sched = Schedule {
        seq,
        entries: vec![ScheduleEntry {
            client: CLIENT,
            rp_offset: SimDuration::from_ms(rp_ms),
            duration: SimDuration::from_ms(dur_ms),
        }],
        next_srp: SimDuration::from_ms(interval_ms),
        unchanged: false,
        fixed_slots: false,
        saturated: false,
    };
    let pkt = Packet::udp(
        0,
        SockAddr::new(PROXY, ports::SCHEDULE),
        SockAddr::new(HostAddr::BROADCAST, ports::SCHEDULE),
        sched.encode(),
    );
    SnifferRecord::of(
        SimTime::from_us(t_us),
        &pkt,
        SimDuration::from_us(1_000),
        Delivery::Broadcast,
    )
}

fn data_record(t_us: u64, mark: bool) -> SnifferRecord {
    let mut pkt = Packet::udp(
        0,
        SockAddr::new(HostAddr(1), 554),
        SockAddr::new(CLIENT, 554),
        Bytes::from(vec![0u8; 400]),
    );
    pkt.tos_mark = mark;
    SnifferRecord::of(
        SimTime::from_us(t_us),
        &pkt,
        SimDuration::from_us(1_200),
        Delivery::Delivered,
    )
}

/// Every report field as raw bits (floats by `to_bits`). Destructured
/// exhaustively, so a new field cannot slip past the equivalence check.
fn bits(r: &PostmortemReport) -> [u64; 15] {
    let PostmortemReport {
        energy_mj,
        naive_mj,
        saved,
        sleep,
        awake,
        transitions,
        delivered,
        missed,
        ap_drops,
        schedules_seen,
        schedules_missed,
        skipped_srp_wakes,
        early_wait,
        missed_sched_wait,
        bytes_delivered,
    } = *r;
    [
        energy_mj.to_bits(),
        naive_mj.to_bits(),
        saved.to_bits(),
        sleep.as_us(),
        awake.as_us(),
        transitions,
        delivered,
        missed,
        ap_drops,
        schedules_seen,
        schedules_missed,
        skipped_srp_wakes,
        early_wait.as_us(),
        missed_sched_wait.as_us(),
        bytes_delivered,
    ]
}

/// One captured UDP frame carrying `body`.
fn frame(
    t_us: u64,
    src: SockAddr,
    dst: SockAddr,
    body: Bytes,
    mark: bool,
    delivery: Delivery,
) -> SnifferRecord {
    let mut pkt = Packet::udp(0, src, dst, body);
    pkt.tos_mark = mark;
    SnifferRecord::of(SimTime::from_us(t_us), &pkt, SimDuration::from_us(900), delivery)
}

/// A schedule broadcast from `proxy` giving each of `clients` a 10 ms
/// slot; `malformed` overlaps the slots instead.
fn schedule_from(
    t_us: u64,
    proxy: HostAddr,
    seq: u64,
    clients: &[HostAddr],
    unchanged: bool,
    malformed: bool,
) -> SnifferRecord {
    let stride = if malformed { 4 } else { 12 };
    let sched = Schedule {
        seq,
        entries: clients
            .iter()
            .enumerate()
            .map(|(j, &client)| ScheduleEntry {
                client,
                rp_offset: SimDuration::from_ms(5 + stride * j as u64),
                duration: SimDuration::from_ms(10),
            })
            .collect(),
        next_srp: SimDuration::from_ms(100),
        unchanged,
        fixed_slots: false,
        saturated: false,
    };
    frame(
        t_us,
        SockAddr::new(proxy, ports::SCHEDULE),
        SockAddr::new(HostAddr::BROADCAST, ports::SCHEDULE),
        sched.encode(),
        false,
        Delivery::Broadcast,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever schedule jitter, burst placement, and mark pattern the
    /// trace throws at the replay:
    /// * delivered + missed equals the frames addressed to the client,
    /// * sleep + awake equals the run duration,
    /// * energy sits between the all-sleep and all-receive bounds,
    /// * savings never exceed the card's physical ceiling.
    #[test]
    fn accounting_balances_for_arbitrary_traces(
        intervals in 5u64..60,
        interval_ms in 50u64..300,
        rp_ms in 1u64..20,
        jitters in prop::collection::vec(0i64..8_000, 5..60),
        burst_sizes in prop::collection::vec(0usize..6, 5..60),
        drop_marks in prop::collection::vec(any::<bool>(), 5..60),
        early_ms in 0u64..10,
    ) {
        let mut recs: Vec<SnifferRecord> = Vec::new();
        let mut addressed = 0u64;
        for k in 0..intervals {
            let base = 2_000 + k * interval_ms * 1_000;
            let jitter = jitters[k as usize % jitters.len()].unsigned_abs();
            let t_sched = base + jitter;
            recs.push(sched_record(t_sched, k, rp_ms, 15, interval_ms));
            let n = burst_sizes[k as usize % burst_sizes.len()];
            for i in 0..n {
                let is_last = i + 1 == n;
                let keep_mark = !drop_marks[k as usize % drop_marks.len()];
                let t = t_sched + rp_ms * 1_000 + i as u64 * 1_500;
                recs.push(data_record(t, is_last && keep_mark));
                addressed += 1;
            }
        }
        recs.sort_by_key(|r| r.t);
        let end = SimTime::from_us(2_000 + intervals * interval_ms * 1_000 + 50_000);
        let p = PolicyParams {
            early_transition: SimDuration::from_ms(early_ms),
            ..PolicyParams::default()
        };
        let rep = analyze_client(&recs, CLIENT, end, &p);

        prop_assert_eq!(rep.delivered + rep.missed, addressed);
        let total = rep.sleep + rep.awake;
        prop_assert_eq!(total, end.since(SimTime::ZERO));

        let card = CardSpec::WAVELAN_DSSS;
        let dur_s = end.as_secs_f64();
        prop_assert!(rep.energy_mj >= card.sleep_mw * dur_s - 1e-6);
        prop_assert!(rep.energy_mj <= card.recv_mw * dur_s + 1e-6);
        prop_assert!(rep.saved <= card.max_savings_fraction() + 1e-9);
        prop_assert!(rep.energy_mj <= rep.naive_mj + 1e-6, "policy can't exceed naive");
        prop_assert!(rep.schedules_seen <= intervals);
    }

    /// A punctual, fully-marked trace is lossless for any early amount,
    /// and a larger early amount never decreases energy.
    #[test]
    fn punctual_traces_are_lossless_and_early_is_monotone(
        intervals in 10u64..60,
        early_a in 0u64..5,
        early_extra in 1u64..6,
    ) {
        let mut recs = Vec::new();
        for k in 0..intervals {
            let t_sched = 2_000 + k * 100_000;
            recs.push(sched_record(t_sched, k, 5, 10, 100));
            recs.push(data_record(t_sched + 5_000, false));
            recs.push(data_record(t_sched + 6_500, true));
        }
        let end = SimTime::from_us(2_000 + intervals * 100_000);
        let mk = |early: u64| {
            analyze_client(
                &recs,
                CLIENT,
                end,
                &PolicyParams {
                    early_transition: SimDuration::from_ms(early),
                    ..PolicyParams::default()
                },
            )
        };
        let a = mk(early_a);
        let b = mk(early_a + early_extra);
        prop_assert_eq!(a.missed, 0);
        prop_assert_eq!(b.missed, 0);
        prop_assert!(b.energy_mj >= a.energy_mj - 1e-6, "earlier wake can't be cheaper");
    }

    /// `TraceIndex::analyze` equals `analyze_client` on every report field
    /// for every client, over traces mixing two proxies' schedule cycles
    /// (some flagged unchanged, some malformed), their bursts, and stray
    /// frames of every kind: non-schedule and client-sent broadcasts,
    /// client uplink, self-addressed frames, every `Delivery` outcome
    /// addressed to a client, corrupted broadcasts and unrelated server
    /// traffic, many sharing timestamps. Also replayed: a client that
    /// never appears in the trace and one past the index's host table.
    ///
    /// The cases the sleep skip must stop for are placed on purpose: a
    /// broadcast at the very instant each slot and SRP wake timer fires
    /// (heard at once when the wake transition is zero), and inside each
    /// interval's sleep span a client-sent broadcast, an own uplink frame
    /// and an AP queue drop addressed to a client. Up to 40 foreign cells
    /// add schedule broadcasts naming none of these clients, which can
    /// outnumber every other record, and the window ends at an arbitrary
    /// instant with the trace cut there, often mid-sleep.
    #[test]
    fn indexed_replay_equals_the_full_scan(
        n_clients in 3usize..7,
        intervals in 5u64..30,
        jitters_ms in prop::collection::vec(0u64..6, 1..30),
        ops in prop::collection::vec(
            (0u8..13, 0usize..6, 0u64..3_000, any::<bool>()),
            0..300,
        ),
        policy in (0u64..10, any::<bool>(), any::<bool>()),
        foreign_cells in 0u64..40,
        tail_ms in 0u64..150,
    ) {
        let clients: Vec<HostAddr> = (0..n_clients).map(|i| HostAddr(100 + i as u32)).collect();
        let proxy_a = HostAddr(3);
        let proxy_b = HostAddr(4);
        let server = SockAddr::new(HostAddr(1), 554);
        let bcast = |port| SockAddr::new(HostAddr::BROADCAST, port);
        let span_ms = intervals * 100;
        let early_ms = policy.0;
        let wake_ms = if policy.2 { 0 } else { 2 };
        let lead_ms = early_ms + wake_ms;
        let mut recs = Vec::new();

        // Two proxies' schedule cycles, 50 ms out of phase, each serving
        // half the clients with a marked two-frame burst per slot.
        for k in 0..intervals {
            let jitter = jitters_ms[k as usize % jitters_ms.len()];
            for (proxy, phase, parity) in [(proxy_a, 2, 0), (proxy_b, 52, 1)] {
                let served: Vec<HostAddr> =
                    clients.iter().copied().skip(parity).step_by(2).collect();
                let t0 = (k * 100 + phase + jitter) * 1_000;
                let malformed = (k + jitter) % 7 == 3;
                recs.push(schedule_from(t0, proxy, k, &served, k % 3 == 1, malformed));
                // A foreign broadcast as the SRP wake fires.
                let ping = |t_ms: u64| {
                    let src = SockAddr::new(proxy_a, 9);
                    frame(t_ms * 1_000, src, bcast(9), Bytes::new(), false, Delivery::Broadcast)
                };
                recs.push(ping(t0 / 1_000 + 100 - lead_ms));
                for (j, &c) in served.iter().enumerate() {
                    let rp = t0 + (5 + 12 * j as u64) * 1_000;
                    // ... and as this client's slot wake fires.
                    recs.push(ping((rp / 1_000).saturating_sub(lead_ms).max(t0 / 1_000)));
                    for f in 0..2u64 {
                        recs.push(frame(
                            rp + f * 1_000,
                            server,
                            SockAddr::new(c, 554),
                            Bytes::from(vec![0u8; 300]),
                            f == 1,
                            Delivery::Delivered,
                        ));
                    }
                }
                // Mid-interval, after every slot and before the next SRP
                // wake: one client broadcasts, one sends uplink, and the
                // AP drops a frame addressed to a third.
                let c = |off: u64| SockAddr::new(served[(k + off) as usize % served.len()], 554);
                let port = if k % 2 == 0 { ports::SCHEDULE } else { 9 };
                for (off_ms, src, dst, delivery) in [
                    (60, c(0), bcast(port), Delivery::Broadcast),
                    (66, c(1), server, Delivery::Delivered),
                    (72, server, c(2), Delivery::QueueDrop),
                ] {
                    let body = Bytes::from(vec![5u8; 48]);
                    recs.push(frame(t0 + off_ms * 1_000, src, dst, body, false, delivery));
                }
            }
        }

        // Foreign cells' schedule cycles, naming only their own clients.
        for cell in 0..foreign_cells {
            let proxy = HostAddr(20 + cell as u32);
            let own = [HostAddr(1_000 + cell as u32)];
            for k in 0..intervals {
                let t = (k * 100 + (cell * 37) % 100) * 1_000;
                recs.push(schedule_from(t, proxy, k, &own, false, false));
            }
        }

        // Stray frames on a 1 ms grid, so many share a timestamp with each
        // other or with the cycles above.
        for &(kind, who, at_ms, flag) in &ops {
            let t = (at_ms % span_ms) * 1_000;
            let c = clients[who % n_clients];
            let to_c = SockAddr::new(c, 554);
            let body = Bytes::from(vec![7u8; 64]);
            let other = SockAddr::new(HostAddr(2), 80);
            recs.push(match kind {
                0 => {
                    frame(t, SockAddr::new(proxy_a, 9), bcast(9), body, false, Delivery::Broadcast)
                }
                1 => frame(t, SockAddr::new(c, 554), server, body, false, Delivery::Delivered),
                // A client's broadcast, sometimes on the schedule port.
                2 => {
                    let port = if flag { ports::SCHEDULE } else { 9 };
                    frame(t, SockAddr::new(c, 554), bcast(port), body, false, Delivery::Broadcast)
                }
                3 => frame(t, server, to_c, body, flag, Delivery::QueueDrop),
                4 => frame(t, server, to_c, body, flag, Delivery::MissedAsleep),
                5 => frame(t, server, to_c, body, flag, Delivery::Corrupted),
                6 => frame(t, server, to_c, body, flag, Delivery::NoSuchHost),
                7 => frame(t, server, to_c, body, flag, Delivery::Delivered),
                8 => frame(t, SockAddr::new(c, 7), to_c, body, flag, Delivery::Delivered),
                9 => {
                    frame(t, SockAddr::new(proxy_b, 9), bcast(9), body, false, Delivery::Corrupted)
                }
                10 => frame(t, server, other, body, flag, Delivery::Delivered),
                11 => frame(t, to_c, server, body, false, Delivery::QueueDrop),
                _ => schedule_from(t, proxy_b, 1_000, &clients, flag, !flag),
            });
        }
        let end = SimTime::from_ms(span_ms + tail_ms);
        recs.retain(|r| r.t <= end);
        recs.sort_by_key(|r| r.t);

        let p = PolicyParams {
            early_transition: SimDuration::from_ms(early_ms),
            wake_transition: SimDuration::from_ms(wake_ms),
            skip_unchanged: policy.1,
            card: CardSpec {
                wake_transition: SimDuration::from_ms(wake_ms),
                ..CardSpec::WAVELAN_DSSS
            },
            ..PolicyParams::default()
        };
        let index = TraceIndex::new(&recs);
        let absent = HostAddr(100 + n_clients as u32);
        let past_table = HostAddr(10_000);
        for host in clients.iter().copied().chain([absent, past_table]) {
            let full = analyze_client(&recs, host, end, &p);
            let indexed = index.analyze(host, end, &p);
            prop_assert_eq!(bits(&indexed), bits(&full), "client {} diverged", host);
            if clients.contains(&host) {
                prop_assert!(full.schedules_seen > 0, "client {} never synced", host);
            }
        }
    }
}
