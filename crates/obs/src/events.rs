//! The structured event channel.
//!
//! Events are point-in-time records of the interesting moments the paper's
//! evaluation is built around: schedule broadcasts, burst boundaries, slot
//! overrun margins, wake-up lead error, WNIC state transitions, and queue
//! depth samples. They carry only simulation quantities (µs, bytes,
//! counts), so an exported event stream is bit-identical across repeat
//! runs.

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The proxy broadcast a schedule.
    ScheduleBroadcast {
        /// Schedule sequence number.
        seq: u64,
        /// Number of slots.
        entries: u32,
        /// Wire size of the broadcast payload.
        bytes: u32,
        /// Announced time to the next SRP, µs.
        next_srp_us: u64,
        /// The §5 unchanged flag.
        unchanged: bool,
        /// Degraded round-robin layout (overhead ≥ interval).
        saturated: bool,
    },
    /// A per-client burst began.
    BurstStart {
        /// Target client host id.
        client: u32,
        /// Slot budget, µs.
        budget_us: u64,
    },
    /// A per-client burst ended.
    BurstEnd {
        /// Target client host id.
        client: u32,
        /// Airtime actually spent, µs.
        spent_us: u64,
        /// Budget minus spent: negative means the slot overran.
        margin_us: i64,
    },
    /// A client finished waiting for scheduled traffic: how long it was
    /// awake-but-idle before the first frame (or the miss timer) arrived.
    WakeLead {
        /// Client host id.
        client: u32,
        /// Idle listening time, µs.
        lead_us: u64,
        /// What the client had woken for.
        woke_for: &'static str,
    },
    /// A WNIC changed power state.
    WnicState {
        /// Owning client host id.
        client: u32,
        /// State left.
        from: &'static str,
        /// State entered.
        to: &'static str,
    },
    /// Queue depth for one client at an SRP snapshot.
    QueueDepth {
        /// Client host id.
        client: u32,
        /// Queued wire bytes (UDP + buffered TCP).
        bytes: u64,
        /// Queued packets.
        pkts: u64,
    },
}

impl EventKind {
    /// Stable kind tag used in exports.
    pub const fn tag(&self) -> &'static str {
        match self {
            EventKind::ScheduleBroadcast { .. } => "schedule_broadcast",
            EventKind::BurstStart { .. } => "burst_start",
            EventKind::BurstEnd { .. } => "burst_end",
            EventKind::WakeLead { .. } => "wake_lead",
            EventKind::WnicState { .. } => "wnic_state",
            EventKind::QueueDepth { .. } => "queue_depth",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// Simulation time, µs.
    pub t_us: u64,
    /// The event payload.
    pub kind: EventKind,
}

impl ObsEvent {
    /// Render as one JSON object. All fields are integers, booleans, or
    /// static strings that never need escaping, so this is hand-rolled
    /// (matching `trace::TraceRow::to_json`) rather than pulling in a JSON
    /// dependency.
    pub fn to_json(&self) -> String {
        let head = format!("{{\"t_us\":{},\"kind\":\"{}\"", self.t_us, self.kind.tag());
        let body = match self.kind {
            EventKind::ScheduleBroadcast {
                seq,
                entries,
                bytes,
                next_srp_us,
                unchanged,
                saturated,
            } => {
                format!(
                    ",\"seq\":{seq},\"entries\":{entries},\"bytes\":{bytes},\
                     \"next_srp_us\":{next_srp_us},\"unchanged\":{unchanged},\
                     \"saturated\":{saturated}"
                )
            }
            EventKind::BurstStart { client, budget_us } => {
                format!(",\"client\":{client},\"budget_us\":{budget_us}")
            }
            EventKind::BurstEnd { client, spent_us, margin_us } => {
                format!(",\"client\":{client},\"spent_us\":{spent_us},\"margin_us\":{margin_us}")
            }
            EventKind::WakeLead { client, lead_us, woke_for } => {
                format!(",\"client\":{client},\"lead_us\":{lead_us},\"woke_for\":\"{woke_for}\"")
            }
            EventKind::WnicState { client, from, to } => {
                format!(",\"client\":{client},\"from\":\"{from}\",\"to\":\"{to}\"")
            }
            EventKind::QueueDepth { client, bytes, pkts } => {
                format!(",\"client\":{client},\"bytes\":{bytes},\"pkts\":{pkts}")
            }
        };
        format!("{head}{body}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shapes() {
        let e = ObsEvent {
            t_us: 1500,
            kind: EventKind::BurstEnd { client: 100, spent_us: 900, margin_us: -50 },
        };
        assert_eq!(
            e.to_json(),
            "{\"t_us\":1500,\"kind\":\"burst_end\",\"client\":100,\"spent_us\":900,\"margin_us\":-50}"
        );
        let s = ObsEvent {
            t_us: 0,
            kind: EventKind::ScheduleBroadcast {
                seq: 3,
                entries: 2,
                bytes: 43,
                next_srp_us: 100_000,
                unchanged: false,
                saturated: true,
            },
        };
        assert!(s.to_json().contains("\"saturated\":true"));
        assert!(s.to_json().contains("\"kind\":\"schedule_broadcast\""));
    }
}
