//! Federation configuration: member sites and the WAN links joining them.

use hpcmon_chaos::ChaosPlan;
use hpcmon_gateway::GatewayConfig;
use hpcmon_sim::SimConfig;

/// One member site: a full monitoring stack over its own simulated
/// cluster, reachable from the federation head across a WAN link.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Site name — the key WAN chaos faults ([`hpcmon_chaos::ChaosFault::WanPartition`]
    /// and friends) and scatter provenance refer to.
    pub name: String,
    /// The site's machine configuration.  Give each site a distinct
    /// `seed` or the federation is N copies of the same cluster.
    pub config: SimConfig,
    /// Clock skew: this site's tick epoch starts `epoch_offset_ticks`
    /// ticks ahead of federation time, so every sample it emits carries
    /// site-local timestamps the merge layer must re-align.
    pub epoch_offset_ticks: u64,
    /// The site's query gateway (always built — scatter needs it).
    pub gateway: GatewayConfig,
    /// Whether the site runs its self-telemetry layer.  Default off: the
    /// wall-clock self series don't survive bit-identity diffing, and
    /// federation rollups carry their own deterministic telemetry.
    pub self_telemetry: bool,
    /// The WAN link from this site to the federation head.
    pub link: WanLinkSpec,
}

impl SiteSpec {
    /// A site over `config`, named `name`, with default gateway, no skew,
    /// and a default WAN link.
    pub fn new(name: impl Into<String>, config: SimConfig) -> SiteSpec {
        SiteSpec {
            name: name.into(),
            config,
            epoch_offset_ticks: 0,
            gateway: GatewayConfig::default(),
            self_telemetry: false,
            link: WanLinkSpec::default(),
        }
    }

    /// Set the clock-skew epoch offset (ticks).
    pub fn epoch_offset_ticks(mut self, ticks: u64) -> SiteSpec {
        self.epoch_offset_ticks = ticks;
        self
    }

    /// Set the WAN link parameters.
    pub fn link(mut self, link: WanLinkSpec) -> SiteSpec {
        self.link = link;
        self
    }
}

/// Static parameters of one WAN link (chaos faults modulate on top).
#[derive(Debug, Clone, Copy)]
pub struct WanLinkSpec {
    /// Base one-way latency, in ticks, for rollup batches (and doubled
    /// for scatter round trips).
    pub latency_ticks: u64,
    /// Link capacity in bytes per tick (`None` = uncapped).  Chaos
    /// [`hpcmon_chaos::ChaosFault::WanBandwidth`] squeezes below this.
    pub bandwidth_bytes_per_tick: Option<u64>,
    /// Bound on in-transit rollup batches queued behind latency, a
    /// partition, or a bandwidth squeeze; overflow evicts the oldest batch
    /// with drop provenance.
    pub max_backlog: usize,
}

impl Default for WanLinkSpec {
    fn default() -> WanLinkSpec {
        WanLinkSpec { latency_ticks: 1, bandwidth_bytes_per_tick: None, max_backlog: 64 }
    }
}

/// The whole federation: member sites plus a seeded WAN fault plan.
#[derive(Debug, Clone, Default)]
pub struct FederationConfig {
    /// Member sites, in a fixed order that scatter, merge tie-breaking,
    /// and rollup component ids all follow.
    pub sites: Vec<SiteSpec>,
    /// Seed for the federation's chaos engine (WAN faults).
    pub seed: u64,
    /// Tick-keyed WAN fault script, interpreted against site names.
    pub link_plan: ChaosPlan,
    /// Run the SLO/alerting plane at the federation head: one
    /// WAN-delivery SLO per site (`federation/wan-delivery@<site>`),
    /// alerts published on `health/alerts`.  Default off.
    pub health: bool,
}

impl FederationConfig {
    /// A federation over `sites` with no WAN faults.
    pub fn new(sites: Vec<SiteSpec>) -> FederationConfig {
        FederationConfig { sites, seed: 0, link_plan: ChaosPlan::new(), health: false }
    }

    /// Attach a seeded WAN fault plan.
    pub fn link_plan(mut self, seed: u64, plan: ChaosPlan) -> FederationConfig {
        self.seed = seed;
        self.link_plan = plan;
        self
    }

    /// Enable the head-level health plane (per-site WAN SLOs).
    pub fn health(mut self, on: bool) -> FederationConfig {
        self.health = on;
        self
    }
}
