//! Postmortem energy/loss analysis — the paper's measurement methodology.
//!
//! §3.1: "We collect a trace of the wireless-side activity using a packet
//! sniffer running on a mobile computer known as the monitoring station.
//! This trace is read by a simulator postmortem in order to determine
//! energy used per client. This is compared to the total energy used by a
//! naive client, which keeps its WNIC in high-power mode for the duration
//! of the trace."
//!
//! [`analyze_client`] replays the captured trace against the client power
//! policy (schedule handling, rendezvous wake-ups with an early-transition
//! amount, sleep-on-mark, miss recovery) and integrates WNIC energy over
//! the resulting mode timeline. Frames that arrive while the replayed
//! client is asleep are the "packets lost" the paper reports (§4.3).
//!
//! [`analyze_client`] scans the whole trace, so replaying every client of
//! a world that way costs O(clients × records). A world's postmortem
//! builds one [`TraceIndex`] instead and replays each client with
//! [`TraceIndex::analyze`], for O(records + Σ own records + Σ broadcasts
//! heard awake + sleep spans · log broadcasts) in total. Skipping is
//! exact. A record changes a client's replay state only when it is a
//! broadcast, the client's own uplink, or a frame addressed to the client
//! (an AP queue drop included); every other record is a no-op. A
//! broadcast the client neither sent nor hears — its radio asleep — only
//! adds its airtime to the naive client's receive time and splits the
//! WNIC's dwell bill, which the integer ledger makes a no-op too; and the
//! radio can leave sleep only on a policy timer. So while the radio
//! sleeps, every broadcast before the next timer and before the client's
//! next own record is skipped in one step, its airtime taken from a
//! prefix sum. Policy timers are keyed on event time, not on records, so
//! they fire at the same instants and in the same order whether or not
//! the skipped records are visited.

use powerburst_core::Schedule;
use powerburst_energy::{naive_energy_mj, CardSpec, Wnic};
use powerburst_net::{ports, Delivery, HostAddr, SnifferRecord};
use powerburst_sim::{EventQueue, SimDuration, SimTime};

/// Client power-policy parameters used in the replay.
#[derive(Debug, Clone, Copy)]
pub struct PolicyParams {
    /// Early-transition amount (Figure 6 sweeps 0–10 ms).
    pub early_transition: SimDuration,
    /// WNIC sleep→idle transition time.
    pub wake_transition: SimDuration,
    /// Patience past the predicted schedule arrival before declaring a miss.
    pub miss_slack: SimDuration,
    /// Gaps shorter than this are not worth sleeping.
    pub min_sleep: SimDuration,
    /// Honor the §5 `unchanged` flag: reuse the schedule for the following
    /// interval and skip its SRP wake-up entirely.
    pub skip_unchanged: bool,
    /// Card power model.
    pub card: CardSpec,
}

impl Default for PolicyParams {
    fn default() -> Self {
        PolicyParams {
            early_transition: SimDuration::from_ms(6),
            wake_transition: SimDuration::from_ms(2),
            miss_slack: SimDuration::from_ms(15),
            min_sleep: SimDuration::from_ms(5),
            skip_unchanged: false,
            card: CardSpec::WAVELAN_DSSS,
        }
    }
}

/// Result of replaying one client against the trace.
#[derive(Debug, Clone, Copy)]
pub struct PostmortemReport {
    /// Energy under the power policy, millijoules.
    pub energy_mj: f64,
    /// Energy of the naive (always high-power) client, millijoules.
    pub naive_mj: f64,
    /// Fraction of energy saved versus naive.
    pub saved: f64,
    /// Time asleep.
    pub sleep: SimDuration,
    /// Time awake (incl. wake transitions).
    pub awake: SimDuration,
    /// Sleep→idle transitions.
    pub transitions: u64,
    /// Unicast frames addressed to the client that it received.
    pub delivered: u64,
    /// Unicast frames addressed to the client that arrived while asleep.
    pub missed: u64,
    /// Frames dropped at the AP queue before ever reaching the air.
    pub ap_drops: u64,
    /// Schedule broadcasts received.
    pub schedules_seen: u64,
    /// Scheduled SRP wake-ups where no schedule arrived.
    pub schedules_missed: u64,
    /// SRP wake-ups skipped under the §5 unchanged optimization.
    pub skipped_srp_wakes: u64,
    /// Awake time spent waiting for predicted packets ("Early", Fig. 6).
    pub early_wait: SimDuration,
    /// Awake time caused by missed schedules ("MissedSched", Fig. 6).
    pub missed_sched_wait: SimDuration,
    /// Payload-ish bytes delivered (wire bytes of received data frames).
    pub bytes_delivered: u64,
}

impl PostmortemReport {
    /// Missed fraction of addressed frames.
    pub fn loss_fraction(&self) -> f64 {
        let total = self.delivered + self.missed;
        if total == 0 {
            return 0.0;
        }
        self.missed as f64 / total as f64
    }

    /// Energy (mJ) wasted on early waits, relative to sleeping instead.
    pub fn early_waste_mj(&self, card: &CardSpec) -> f64 {
        (card.idle_mw - card.sleep_mw) * self.early_wait.as_secs_f64()
    }

    /// Energy (mJ) wasted on missed schedules, relative to sleeping.
    pub fn missed_waste_mj(&self, card: &CardSpec) -> f64 {
        (card.idle_mw - card.sleep_mw) * self.missed_sched_wait.as_secs_f64()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WokeFor {
    Srp,
    Burst,
}

#[derive(Debug, Clone, Copy)]
enum PEv {
    WakeSlot { gen: u64, idx: usize },
    WakeSrp { gen: u64 },
    MissDeadline { gen: u64 },
    SlotEnd { gen: u64, extended: bool },
}

#[derive(Debug, Clone, Copy)]
struct MySlot {
    duration: SimDuration,
    sleep_at_end: bool,
}

struct Replay {
    p: PolicyParams,
    client: HostAddr,
    wnic: Wnic,
    heap: EventQueue<PEv>,
    gen: u64,
    slots: Vec<MySlot>,
    planned_wakes: Vec<SimTime>,
    pending: Option<(Schedule, SimTime)>,
    /// Predicted arrival of the next schedule we expect to hear, plus the
    /// interval used to extrapolate it. Tracks the lower envelope of
    /// schedule arrivals so one AP-delay spike on a schedule packet does
    /// not shift a whole interval of wake-up predictions late.
    srp_pred: Option<(SimTime, SimDuration)>,
    in_burst: bool,
    /// A burst's unmarked frames have been seen but its mark has not:
    /// lets a fixed slot's end linger for the tail instead of sleeping
    /// mid-burst. Cleared by the mark, a new schedule, or giving up after
    /// one bounded extension.
    burst_open: bool,
    /// Consecutive schedules heard with the `unchanged` flag set; drives
    /// the §5 skip escalation.
    unchanged_streak: u32,
    woke_for: Option<(WokeFor, SimTime)>,
    miss_since: Option<SimTime>,
    synced: bool,
    // accounting
    delivered: u64,
    missed: u64,
    ap_drops: u64,
    schedules_seen: u64,
    schedules_missed: u64,
    skipped_srp_wakes: u64,
    early_wait: SimDuration,
    missed_sched_wait: SimDuration,
    bytes_delivered: u64,
    naive_rx_airtime: SimDuration,
    tx_airtime: SimDuration,
}

impl Replay {
    fn new(client: HostAddr, p: PolicyParams) -> Replay {
        Replay {
            p,
            client,
            wnic: Wnic::new(p.card),
            heap: EventQueue::new(),
            gen: 0,
            slots: Vec::new(),
            planned_wakes: Vec::new(),
            pending: None,
            srp_pred: None,
            in_burst: false,
            burst_open: false,
            unchanged_streak: 0,
            woke_for: None,
            miss_since: None,
            synced: false,
            delivered: 0,
            missed: 0,
            ap_drops: 0,
            schedules_seen: 0,
            schedules_missed: 0,
            skipped_srp_wakes: 0,
            early_wait: SimDuration::ZERO,
            missed_sched_wait: SimDuration::ZERO,
            bytes_delivered: 0,
            naive_rx_airtime: SimDuration::ZERO,
            tx_airtime: SimDuration::ZERO,
        }
    }

    fn lead(&self) -> SimDuration {
        self.p.early_transition + self.p.wake_transition
    }

    fn sleep_if_idle(&mut self, t: SimTime) {
        if self.in_burst || self.miss_since.is_some() || !self.synced {
            return;
        }
        // Expecting a schedule any moment (the SRP wake already fired):
        // sleeping now would turn a late mark into a missed interval.
        if self.woke_for.map(|(w, _)| w) == Some(WokeFor::Srp) {
            return;
        }
        // Keep wakes at exactly `t` (imminent slot = stay awake).
        self.planned_wakes.retain(|&w| w >= t);
        match self.planned_wakes.iter().min() {
            Some(&w) if w.since(t) < self.p.min_sleep => {}
            _ => self.wnic.sleep(t),
        }
    }

    fn account_arrival(&mut self, t: SimTime) {
        if let Some((_, listen_start)) = self.woke_for.take() {
            self.early_wait += t.since(listen_start);
        }
    }

    fn apply_schedule(&mut self, sched: Schedule, arrival: SimTime, t: SimTime) {
        self.account_arrival(t);
        if let Some(since) = self.miss_since.take() {
            self.missed_sched_wait += t.since(since);
        }
        // AP forwarding delay is a slow random walk plus occasional large
        // exponential spikes. The walk is worth tracking — the burst's
        // frames ride the same walk — but a spike on the one schedule
        // packet every wake-up is extrapolated from shifts a whole
        // interval of slot predictions late (two intervals under §5
        // skipping), and the burst's first frames then land during the
        // wake transition. So: trust the raw arrival when it lands near
        // the arrival predicted from the previous schedule, substitute
        // the prediction when the arrival is a clear outlier, and
        // re-phase to the raw arrival on a gross disagreement (the proxy
        // moved its SRP).
        const SPIKE_GUARD: SimDuration = SimDuration::from_ms(2);
        const RESYNC: SimDuration = SimDuration::from_ms(20);
        let anchor = match self.srp_pred {
            Some((mut exp, per)) if per > SimDuration::ZERO => {
                // Stride over schedules we slept through or failed to hear.
                while arrival >= exp + per {
                    exp += per;
                }
                if arrival > exp
                    && arrival.since(exp) > RESYNC
                    && (exp + per).since(arrival) <= RESYNC
                {
                    exp += per;
                }
                let late = arrival > exp;
                if late && arrival.since(exp) > SPIKE_GUARD && arrival.since(exp) <= RESYNC {
                    exp
                } else {
                    arrival
                }
            }
            _ => arrival,
        };
        // A deferred schedule whose own interval has already elapsed is
        // useless: its rendezvous points are in the past and the following
        // schedule is imminent. Stay awake and wait for a fresh one.
        if t > arrival + sched.next_srp {
            self.gen += 1; // invalidate stale wake-ups
            self.slots.clear();
            self.planned_wakes.clear();
            self.miss_since = Some(t);
            self.srp_pred = Some((anchor + sched.next_srp, sched.next_srp));
            return;
        }
        self.synced = true;
        self.gen += 1;
        self.burst_open = false;
        let gen = self.gen;
        self.slots.clear();
        self.planned_wakes.clear();
        let lead = self.lead();
        let mine: Vec<_> = sched.slots_for(self.client).cloned().collect();
        for e in &mine {
            // A schedule applied late (deferred past its own burst) must
            // not arm wake-ups for slots that already started — the mark
            // that released it *was* that burst's end, which can land
            // before the slot's nominal end. Re-arming such a slot raises
            // a phantom burst expectation that keeps the client awake for
            // the whole following interval (and, because the next schedule
            // then also arrives "during a burst" and is deferred, locks
            // the replay into a never-sleeping cycle).
            // (Judged against the raw arrival, not the smoothed anchor:
            // the burst rides the same forwarding-delay walk the schedule
            // did, so the raw arrival is the better "has it started yet"
            // reference; the floor would declare slots elapsed early.)
            if arrival + e.rp_offset < t {
                // A *fixed* slot, though, ends on its own clock rather
                // than on a mark, so re-arming it cannot raise a phantom
                // expectation. If part of it still lies ahead the burst
                // may simply be running late behind AP delay: stay up for
                // the remainder instead of sleeping through frames that
                // are still in flight.
                let end = arrival + e.rp_offset + e.duration;
                let fixed = e.client.is_broadcast() || sched.fixed_slots;
                if fixed && t < end {
                    let idx = self.slots.len();
                    self.slots.push(MySlot { duration: end.since(t), sleep_at_end: true });
                    self.heap.push(t, PEv::WakeSlot { gen, idx });
                    self.planned_wakes.push(t);
                }
                continue;
            }
            let idx = self.slots.len();
            self.slots.push(MySlot {
                duration: e.duration,
                sleep_at_end: e.client.is_broadcast() || sched.fixed_slots,
            });
            let wake_at = (anchor + e.rp_offset.saturating_sub(lead)).max(t);
            self.heap.push(wake_at, PEv::WakeSlot { gen, idx });
            self.planned_wakes.push(wake_at);
        }
        // §5 optimization: an unchanged schedule is reused for the
        // following interval(s) and their SRP wakes are skipped entirely.
        // Permanent slots allow more than one skip: each consecutive
        // unchanged schedule doubles the reuse span, capped so a schedule
        // change is never heard more than `MAX_REUSE` intervals late.
        // The extrapolation stays exact because the proxy's SRP phase is
        // fixed — only per-packet AP jitter varies, which the early-
        // transition amount absorbs.
        const MAX_REUSE: u32 = 8;
        if sched.unchanged {
            self.unchanged_streak = self.unchanged_streak.saturating_add(1);
        } else {
            self.unchanged_streak = 0;
        }
        let reuse = if sched.unchanged && self.p.skip_unchanged && !mine.is_empty() {
            (1u32 << self.unchanged_streak.min(3)).min(MAX_REUSE)
        } else {
            1
        };
        self.skipped_srp_wakes += u64::from(reuse - 1);
        for j in 1..reuse {
            for e in &mine {
                let idx = self.slots.len();
                self.slots.push(MySlot {
                    duration: e.duration,
                    sleep_at_end: e.client.is_broadcast() || sched.fixed_slots,
                });
                let wake_at =
                    (anchor + sched.next_srp * u64::from(j) + e.rp_offset.saturating_sub(lead))
                        .max(t);
                self.heap.push(wake_at, PEv::WakeSlot { gen, idx });
                self.planned_wakes.push(wake_at);
            }
        }
        let srp_nominal = anchor + sched.next_srp * u64::from(reuse);
        let srp_at = if reuse > 1 {
            (srp_nominal - lead).max(t)
        } else {
            (anchor + sched.next_srp.saturating_sub(lead)).max(t)
        };
        self.heap.push(srp_at, PEv::WakeSrp { gen });
        self.planned_wakes.push(srp_at);
        self.srp_pred = Some((srp_nominal, sched.next_srp));
        self.sleep_if_idle(t);
    }

    fn on_policy_event(&mut self, t: SimTime, ev: PEv) {
        match ev {
            PEv::WakeSlot { gen, idx } => {
                if gen != self.gen {
                    return;
                }
                self.wnic.wake(t);
                let Some(slot) = self.slots.get(idx).copied() else { return };
                self.woke_for = Some((WokeFor::Burst, t + self.p.wake_transition));
                if slot.sleep_at_end {
                    // Fixed slots end on their own clock: linger briefly
                    // for late frames, then sleep without needing a mark.
                    self.heap.push(
                        t + self.lead() + slot.duration + SimDuration::from_ms(2),
                        PEv::SlotEnd { gen, extended: false },
                    );
                } else {
                    self.in_burst = true;
                }
            }
            PEv::WakeSrp { gen } => {
                if gen != self.gen {
                    return;
                }
                self.wnic.wake(t);
                self.woke_for = Some((WokeFor::Srp, t + self.p.wake_transition));
                self.heap.push(t + self.lead() + self.p.miss_slack, PEv::MissDeadline { gen });
            }
            PEv::MissDeadline { gen } => {
                if gen != self.gen {
                    return;
                }
                if self.woke_for.map(|(w, _)| w) == Some(WokeFor::Srp) {
                    self.schedules_missed += 1;
                    self.woke_for = None;
                    self.miss_since = Some(t);
                }
            }
            PEv::SlotEnd { gen, extended } => {
                if gen != self.gen {
                    return;
                }
                // Only the burst expectation ends with the slot; an SRP
                // expectation (the SRP wake may already have fired) must
                // survive or the client would sleep through the schedule.
                if self.burst_open {
                    // The burst's frames arrived but its mark hasn't: the
                    // tail is straggling behind AP forwarding delay.
                    // Linger up to `miss_slack` — the same patience
                    // granted a late schedule — before giving it up.
                    // Bounded to one extension so a lost mark costs at
                    // most `miss_slack` of extra awake time. (An *empty*
                    // slot gets no such grace: first frames can't outrun
                    // the normal close, so waiting longer buys nothing.)
                    if !extended && self.pending.is_none() {
                        self.heap.push(t + self.p.miss_slack, PEv::SlotEnd { gen, extended: true });
                        return;
                    }
                    self.burst_open = false;
                }
                if self.woke_for.map(|(w, _)| w) == Some(WokeFor::Burst) {
                    self.woke_for = None;
                }
                if let Some((sched, arrival)) = self.pending.take() {
                    self.in_burst = false;
                    self.apply_schedule(sched, arrival, t);
                } else {
                    self.sleep_if_idle(t);
                }
            }
        }
    }

    fn on_record(&mut self, rec: &SnifferRecord) {
        let t = rec.t;
        if rec.delivery == Delivery::QueueDrop {
            if rec.dst.host == self.client {
                self.ap_drops += 1;
            }
            return;
        }
        if rec.src.host == self.client {
            // The client's own uplink (ACKs, receiver reports): billed as
            // transmit energy for both the policy and the naive client.
            self.wnic.on_transmit(t, rec.airtime);
            self.tx_airtime += rec.airtime;
            return;
        }
        if rec.delivery == Delivery::Broadcast {
            // Naive client hears broadcasts too.
            self.naive_rx_airtime += rec.airtime;
            let is_sched = rec.dst.port == ports::SCHEDULE;
            if self.wnic.is_listening(t) {
                self.wnic.on_receive(t, rec.airtime);
                if is_sched {
                    if let Some(payload) = &rec.payload {
                        // A malformed layout counts as undecodable.
                        let sched = Schedule::decode(payload).filter(Schedule::is_well_formed);
                        if let Some(sched) = sched {
                            self.schedules_seen += 1;
                            if self.in_burst && self.pending.is_none() {
                                // Rule (1): defer until the marked packet —
                                // but the schedule did arrive, so the SRP
                                // wait is over and no miss may be declared.
                                if self.woke_for.map(|(w, _)| w) == Some(WokeFor::Srp) {
                                    self.account_arrival(t);
                                }
                                self.pending = Some((sched, t));
                            } else {
                                self.in_burst = false;
                                self.pending = None;
                                self.apply_schedule(sched, t, t);
                            }
                        }
                    }
                }
            }
            return;
        }
        if rec.dst.host == self.client {
            self.naive_rx_airtime += rec.airtime;
            if self.wnic.is_listening(t) {
                self.delivered += 1;
                self.bytes_delivered += rec.wire_size as u64;
                self.wnic.on_receive(t, rec.airtime);
                if self.woke_for.map(|(w, _)| w) == Some(WokeFor::Burst) {
                    self.account_arrival(t);
                }
                if rec.tos_mark {
                    self.in_burst = false;
                    self.burst_open = false;
                    if let Some((sched, arrival)) = self.pending.take() {
                        self.apply_schedule(sched, arrival, t);
                    } else {
                        self.sleep_if_idle(t);
                    }
                } else {
                    // An unmarked frame means a burst is mid-flight; let a
                    // fixed slot's end linger for the mark instead of
                    // cutting a straggling tail frame off.
                    self.burst_open = true;
                }
            } else {
                self.missed += 1;
            }
        }
    }
}

/// Replay `records` (time-ordered) for `client`, ending the billing window
/// at `run_end`. Scans the whole trace; [`TraceIndex::analyze`] gives the
/// same report from only the records that concern `client`.
pub fn analyze_client(
    records: &[SnifferRecord],
    client: HostAddr,
    run_end: SimTime,
    p: &PolicyParams,
) -> PostmortemReport {
    replay(records.iter(), client, run_end, p)
}

/// Where the replay loop reads its records from, in trace order. Every
/// record that concerns the client must come out of `next` (others are
/// no-ops, so a source may leave them out).
trait RecordSource<'a>: Iterator<Item = &'a SnifferRecord> {
    /// Called while the replayed radio sleeps, with the next policy
    /// timer: pass over upcoming broadcasts that precede both that timer
    /// and the client's next own record (self-sent broadcasts included),
    /// returning their summed airtime. Skipping none is always correct.
    fn skip_unheard(&mut self, next_timer: Option<SimTime>) -> SimDuration;
}

/// The full scan, kept as the reference: it visits every record.
impl<'a> RecordSource<'a> for std::slice::Iter<'a, SnifferRecord> {
    fn skip_unheard(&mut self, _next_timer: Option<SimTime>) -> SimDuration {
        SimDuration::ZERO
    }
}

/// The replay loop shared by [`analyze_client`] and [`TraceIndex::analyze`].
fn replay<'a>(
    mut records: impl RecordSource<'a>,
    client: HostAddr,
    run_end: SimTime,
    p: &PolicyParams,
) -> PostmortemReport {
    let mut r = Replay::new(client, *p);
    loop {
        if r.wnic.is_asleep() {
            // Only a policy timer can wake the radio, so until the next
            // one an unheard broadcast adds naive airtime and nothing else.
            r.naive_rx_airtime += records.skip_unheard(r.heap.peek_time());
        }
        let Some(rec) = records.next() else { break };
        // Fire policy timers due before this frame.
        while let Some(evt) = r.heap.peek_time() {
            if evt > rec.t {
                break;
            }
            let (t, ev) = r.heap.pop().expect("peeked");
            r.on_policy_event(t, ev);
        }
        r.on_record(rec);
    }
    // Drain remaining policy events up to the end of the window.
    while let Some(evt) = r.heap.peek_time() {
        if evt > run_end {
            break;
        }
        let (t, ev) = r.heap.pop().expect("peeked");
        r.on_policy_event(t, ev);
    }
    if let Some(since) = r.miss_since.take() {
        r.missed_sched_wait += run_end.since(since);
    }
    let energy = r.wnic.report_at(run_end);
    let naive =
        naive_energy_mj(&p.card, run_end.since(SimTime::ZERO), r.naive_rx_airtime, r.tx_airtime);
    PostmortemReport {
        energy_mj: energy.total_mj,
        naive_mj: naive,
        saved: if naive > 0.0 { 1.0 - energy.total_mj / naive } else { 0.0 },
        sleep: energy.sleep,
        awake: energy.awake + energy.waking,
        transitions: energy.wake_transitions,
        delivered: r.delivered,
        missed: r.missed,
        ap_drops: r.ap_drops,
        schedules_seen: r.schedules_seen,
        schedules_missed: r.schedules_missed,
        skipped_srp_wakes: r.skipped_srp_wakes,
        early_wait: r.early_wait,
        missed_sched_wait: r.missed_sched_wait,
        bytes_delivered: r.bytes_delivered,
    }
}

/// A per-world index of a sniffer trace, built once in O(records), that
/// lets each client's replay visit only the records that can change its
/// state: the broadcasts it may hear, plus the records it sent or that
/// were addressed to it.
pub struct TraceIndex<'a> {
    records: &'a [SnifferRecord],
    /// Positions of every `Delivery::Broadcast` record, shared by all
    /// clients.
    broadcasts: Vec<u32>,
    /// Capture time of each broadcast, parallel to `broadcasts`.
    broadcast_t: Vec<SimTime>,
    /// Airtime of the broadcasts before each one: `airtime_before[k]` sums
    /// `broadcasts[..k]`, so it has one more entry than `broadcasts`.
    airtime_before: Vec<SimDuration>,
    /// CSR offsets by host id: host `h`'s own records are
    /// `own[offsets[h]..offsets[h + 1]]`.
    offsets: Vec<u32>,
    /// Positions of the records each host sent or was addressed by (once
    /// when it did both), ascending within each host. A host's own
    /// broadcasts are listed here as well as in `broadcasts`.
    own: Vec<u32>,
}

impl<'a> TraceIndex<'a> {
    /// Index `records` (time-ordered). The host table is sized by the
    /// largest unicast host id in the trace.
    pub fn new(records: &'a [SnifferRecord]) -> TraceIndex<'a> {
        let pos = |i: usize| u32::try_from(i).expect("trace positions fit in u32");
        // The unicast hosts a record is listed under.
        let hosts = |rec: &SnifferRecord| {
            let (src, dst) = (rec.src.host, rec.dst.host);
            let keep = |h: HostAddr| (!h.is_broadcast()).then_some(h.0 as usize);
            [keep(src), if dst == src { None } else { keep(dst) }].into_iter().flatten()
        };
        let mut broadcasts = Vec::new();
        let mut broadcast_t = Vec::new();
        let mut airtime_before = vec![SimDuration::ZERO];
        let mut airtime = SimDuration::ZERO;
        let mut counts: Vec<u32> = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            if rec.delivery == Delivery::Broadcast {
                broadcasts.push(pos(i));
                broadcast_t.push(rec.t);
                airtime += rec.airtime;
                airtime_before.push(airtime);
            }
            for h in hosts(rec) {
                if h >= counts.len() {
                    counts.resize(h + 1, 0);
                }
                counts[h] += 1;
            }
        }
        // Exclusive prefix sums; `next[h]` is host `h`'s fill cursor.
        let mut offsets = Vec::with_capacity(counts.len() + 1);
        let mut total = 0u32;
        offsets.push(0);
        for c in &counts {
            total += c;
            offsets.push(total);
        }
        let mut next = offsets[..counts.len()].to_vec();
        let mut own = vec![0u32; total as usize];
        for (i, rec) in records.iter().enumerate() {
            for h in hosts(rec) {
                own[next[h] as usize] = pos(i);
                next[h] += 1;
            }
        }
        TraceIndex { records, broadcasts, broadcast_t, airtime_before, offsets, own }
    }

    /// Positions of `host`'s own records.
    fn own_of(&self, host: HostAddr) -> &[u32] {
        let h = host.0 as usize;
        match (self.offsets.get(h), self.offsets.get(h + 1)) {
            (Some(&lo), Some(&hi)) => &self.own[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// The same report as [`analyze_client`] over the indexed trace, for a
    /// unicast `client`, replaying its own records merged in trace order
    /// with the broadcasts, less those it sleeps through.
    pub fn analyze(
        &self,
        client: HostAddr,
        run_end: SimTime,
        p: &PolicyParams,
    ) -> PostmortemReport {
        debug_assert!(!client.is_broadcast(), "the replay is per unicast client");
        replay(
            ClientRecords { index: self, bcast: 0, own: self.own_of(client) },
            client,
            run_end,
            p,
        )
    }
}

/// One client's view of a [`TraceIndex`]: the broadcasts from cursor
/// `bcast` on, merged with the client's remaining own records.
struct ClientRecords<'i, 'a> {
    index: &'i TraceIndex<'a>,
    bcast: usize,
    own: &'i [u32],
}

impl<'a> Iterator for ClientRecords<'_, 'a> {
    type Item = &'a SnifferRecord;

    fn next(&mut self) -> Option<&'a SnifferRecord> {
        let b = self.index.broadcasts.get(self.bcast).copied();
        let o = self.own.first().copied();
        let pos = match (b, o) {
            (Some(b), Some(o)) => b.min(o),
            _ => b.or(o)?,
        };
        // A self-sent broadcast sits in both lists: emit it once.
        if b == Some(pos) {
            self.bcast += 1;
        }
        if o == Some(pos) {
            self.own = &self.own[1..];
        }
        Some(&self.index.records[pos as usize])
    }
}

impl<'a> RecordSource<'a> for ClientRecords<'_, 'a> {
    fn skip_unheard(&mut self, next_timer: Option<SimTime>) -> SimDuration {
        let from = self.bcast;
        let times = &self.index.broadcast_t[from..];
        let mut n = next_timer.map_or(times.len(), |t| times.partition_point(|&bt| bt < t));
        if let Some(&o) = self.own.first() {
            n = self.index.broadcasts[from..from + n].partition_point(|&b| b < o);
        }
        self.bcast += n;
        self.index.airtime_before[self.bcast] - self.index.airtime_before[from]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use powerburst_core::{Schedule, ScheduleEntry};
    use powerburst_net::{Packet, SockAddr};

    const CLIENT: HostAddr = HostAddr(10);
    const PROXY: HostAddr = HostAddr(1);

    fn sched_record(t: SimTime, sched: &Schedule) -> SnifferRecord {
        let pkt = Packet::udp(
            0,
            SockAddr::new(PROXY, ports::SCHEDULE),
            SockAddr::new(HostAddr::BROADCAST, ports::SCHEDULE),
            sched.encode(),
        );
        SnifferRecord::of(t, &pkt, SimDuration::from_us(1_000), Delivery::Broadcast)
    }

    fn data_record(t: SimTime, mark: bool) -> SnifferRecord {
        let mut pkt = Packet::udp(
            0,
            SockAddr::new(PROXY, 554),
            SockAddr::new(CLIENT, 554),
            Bytes::from(vec![0u8; 500]),
        );
        pkt.tos_mark = mark;
        SnifferRecord::of(t, &pkt, SimDuration::from_us(1_300), Delivery::Delivered)
    }

    fn simple_schedule(rp_ms: u64, dur_ms: u64, interval_ms: u64) -> Schedule {
        Schedule {
            seq: 0,
            entries: vec![ScheduleEntry {
                client: CLIENT,
                rp_offset: SimDuration::from_ms(rp_ms),
                duration: SimDuration::from_ms(dur_ms),
            }],
            next_srp: SimDuration::from_ms(interval_ms),
            unchanged: false,
            fixed_slots: false,
            saturated: false,
        }
    }

    /// Build a well-behaved periodic trace: schedule every 100ms, a small
    /// burst (2 packets, second marked) a few ms after each schedule.
    fn periodic_trace(intervals: u64) -> Vec<SnifferRecord> {
        let mut recs = Vec::new();
        let mut sched = simple_schedule(10, 10, 100);
        for k in 0..intervals {
            sched.seq = k;
            let t0 = SimTime::from_ms(5 + 100 * k);
            recs.push(sched_record(t0, &sched));
            recs.push(data_record(t0 + SimDuration::from_ms(10), false));
            recs.push(data_record(t0 + SimDuration::from_ms(12), true));
        }
        recs
    }

    #[test]
    fn well_behaved_trace_saves_energy_and_loses_nothing() {
        let recs = periodic_trace(50);
        let end = SimTime::from_ms(5 + 100 * 50);
        let rep = analyze_client(&recs, CLIENT, end, &PolicyParams::default());
        assert_eq!(rep.missed, 0, "no losses on a punctual trace");
        assert_eq!(rep.delivered, 100);
        assert_eq!(rep.schedules_seen, 50);
        assert_eq!(rep.schedules_missed, 0);
        assert!(rep.saved > 0.5, "saved {}", rep.saved);
        assert!(rep.sleep > rep.awake, "mostly asleep");
        assert!(rep.transitions >= 50, "wakes for schedule + burst");
    }

    #[test]
    fn naive_exceeds_policy_energy() {
        let recs = periodic_trace(20);
        let end = SimTime::from_ms(5 + 100 * 20);
        let rep = analyze_client(&recs, CLIENT, end, &PolicyParams::default());
        assert!(rep.naive_mj > rep.energy_mj);
    }

    #[test]
    fn late_schedule_causes_miss_and_waste() {
        let mut recs = Vec::new();
        let mut sched = simple_schedule(10, 10, 100);
        // Two punctual intervals (with data bursts), then the third
        // schedule arrives 60ms late.
        for k in 0..2u64 {
            sched.seq = k;
            let t0 = SimTime::from_ms(5 + 100 * k);
            recs.push(sched_record(t0, &sched));
            recs.push(data_record(t0 + SimDuration::from_ms(10), false));
            recs.push(data_record(t0 + SimDuration::from_ms(12), true));
        }
        sched.seq = 2;
        recs.push(sched_record(SimTime::from_ms(5 + 200 + 60), &sched));
        // End the window before the post-recovery SRP would fire, so the
        // end-of-trace tail doesn't register as a second miss.
        let rep = analyze_client(&recs, CLIENT, SimTime::from_ms(300), &PolicyParams::default());
        assert_eq!(rep.schedules_missed, 1);
        assert!(rep.missed_sched_wait >= SimDuration::from_ms(30));
    }

    #[test]
    fn data_while_asleep_is_missed() {
        let mut recs = periodic_trace(3);
        // Inject a stray packet mid-sleep (t=80ms into interval 0: the
        // client slept after its 17ms mark and wakes ~97ms).
        recs.push(data_record(SimTime::from_ms(60), false));
        recs.sort_by_key(|r| r.t);
        let rep = analyze_client(&recs, CLIENT, SimTime::from_ms(305), &PolicyParams::default());
        assert_eq!(rep.missed, 1);
        assert!(rep.loss_fraction() > 0.0);
    }

    #[test]
    fn zero_early_transition_wastes_less_when_punctual() {
        let recs = periodic_trace(50);
        let end = SimTime::from_ms(5 + 100 * 50);
        let p0 = PolicyParams { early_transition: SimDuration::ZERO, ..PolicyParams::default() };
        let p8 =
            PolicyParams { early_transition: SimDuration::from_ms(8), ..PolicyParams::default() };
        let r0 = analyze_client(&recs, CLIENT, end, &p0);
        let r8 = analyze_client(&recs, CLIENT, end, &p8);
        // On a perfectly punctual trace, waking earlier only wastes energy.
        assert!(r0.early_wait < r8.early_wait);
        assert!(r0.energy_mj < r8.energy_mj);
    }

    #[test]
    fn malformed_schedules_replay_like_undecodable_ones() {
        // Interval 5 carries an overlapping layout, interval 8 an RP past
        // the interval; both decode, neither is well-formed.
        let mut overlap = simple_schedule(10, 10, 100);
        overlap.entries.push(ScheduleEntry {
            client: HostAddr(11),
            rp_offset: SimDuration::from_ms(15),
            duration: SimDuration::from_ms(10),
        });
        let past_interval = simple_schedule(105, 10, 100);
        let bad = |recs: &mut Vec<SnifferRecord>, k: usize, payload: Bytes| {
            recs[3 * k].payload = Some(payload);
        };
        let end = SimTime::from_ms(5 + 100 * 20);
        let p = PolicyParams::default();

        let mut malformed = periodic_trace(20);
        bad(&mut malformed, 5, overlap.encode());
        bad(&mut malformed, 8, past_interval.encode());
        let mut garbled = periodic_trace(20);
        bad(&mut garbled, 5, Bytes::from_static(b"junk"));
        bad(&mut garbled, 8, Bytes::from_static(b"junk"));

        let a = analyze_client(&malformed, CLIENT, end, &p);
        let b = analyze_client(&garbled, CLIENT, end, &p);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "malformed must replay as undecodable");
        assert_eq!(a.schedules_seen, 18);
        assert!(a.schedules_missed >= 2, "missed {}", a.schedules_missed);
        let clean = analyze_client(&periodic_trace(20), CLIENT, end, &p);
        assert!(a.missed_sched_wait > clean.missed_sched_wait);
    }

    #[test]
    fn empty_trace_is_all_naive() {
        let rep = analyze_client(&[], CLIENT, SimTime::from_secs(10), &PolicyParams::default());
        // Never synced: stays awake the whole run, saving nothing.
        assert_eq!(rep.sleep, SimDuration::ZERO);
        assert!(rep.saved.abs() < 1e-9);
    }
}
