//! Device-side counters.

/// Counters accumulated by a [`CsdDevice`](crate::device::CsdDevice) over
/// a run. GET counts feed Figures 11b/11c (request-reissue curves);
/// switch counts validate the closed-form models of §3.2/§5.2.1.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeviceMetrics {
    /// Paid group switches (spin-down + spin-up cycles).
    pub group_switches: u64,
    /// Free initial loads (the device always has *some* group spinning;
    /// the first access is modelled as already loaded).
    pub initial_loads: u64,
    /// GET requests accepted.
    pub requests_submitted: u64,
    /// Objects fully transferred to clients.
    pub objects_served: u64,
    /// Logical bytes transferred.
    pub logical_bytes_served: u64,
    /// Stream-occupancy time: Σ over completed transfers of their
    /// duration, in microseconds. With `k` overlapping streams this
    /// exceeds the wall-clock transfer time by up to `k×` — the
    /// overlap/utilization rollup divides the two.
    pub transfer_busy_micros: u64,
    /// Peak number of simultaneously occupied transfer slots (1 for a
    /// serial device; for a fleet roll-up, the max over shards).
    pub peak_concurrent_streams: u32,
    /// In-flight transfers aborted by a fault-plane shard crash. The
    /// bytes never arrived: aborted transfers count in no served
    /// counter and leave no ledger entry — the request is re-served
    /// elsewhere (or after recovery), which is what keeps the delivery
    /// multiset conserved through failover.
    pub transfers_aborted: u64,
    /// Queued requests evacuated by a fault-plane shard crash
    /// (re-routed to surviving replicas or parked until recovery).
    pub requests_evacuated: u64,
    /// Queued requests dequeued by the protection plane before service:
    /// deadline-cancelled queries, exhausted retries, and hedge losers
    /// whose winning replica delivered first. Cancelled requests leave
    /// no served-ledger entry — they were never transferred.
    pub requests_cancelled: u64,
}

impl DeviceMetrics {
    /// Adds another device's counters into this one (the fleet roll-up:
    /// per-shard metrics sum into one device-layer aggregate).
    pub fn absorb(&mut self, other: &DeviceMetrics) {
        self.group_switches += other.group_switches;
        self.initial_loads += other.initial_loads;
        self.requests_submitted += other.requests_submitted;
        self.objects_served += other.objects_served;
        self.logical_bytes_served += other.logical_bytes_served;
        self.transfer_busy_micros += other.transfer_busy_micros;
        self.peak_concurrent_streams = self
            .peak_concurrent_streams
            .max(other.peak_concurrent_streams);
        self.transfers_aborted += other.transfers_aborted;
        self.requests_evacuated += other.requests_evacuated;
        self.requests_cancelled += other.requests_cancelled;
    }

    /// Rolls up per-shard metrics into one aggregate.
    pub fn rolled_up<'a>(shards: impl IntoIterator<Item = &'a DeviceMetrics>) -> DeviceMetrics {
        let mut total = DeviceMetrics::default();
        for m in shards {
            total.absorb(m);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roll_up_sums_counters_and_client_tables() {
        let a = DeviceMetrics {
            group_switches: 2,
            initial_loads: 1,
            requests_submitted: 5,
            objects_served: 5,
            logical_bytes_served: 500,
            ..Default::default()
        };
        let b = DeviceMetrics {
            group_switches: 1,
            objects_served: 2,
            ..Default::default()
        };
        let total = DeviceMetrics::rolled_up([&a, &b]);
        assert_eq!(total.group_switches, 3);
        assert_eq!(total.initial_loads, 1);
        assert_eq!(total.objects_served, 7);
        assert_eq!(total.logical_bytes_served, 500);
        // Rolling up one shard reproduces it exactly.
        assert_eq!(DeviceMetrics::rolled_up([&a]), a);
    }
}
