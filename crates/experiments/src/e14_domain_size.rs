//! E14 (extension) — Domain granularity.
//!
//! §4.1: "The only parameter determining the domain size is the maximum
//! number of processing peers a Resource Manager can manage." This
//! experiment asks what that parameter costs: small domains mean more
//! RMs, more gossip and more inter-domain redirects; large domains mean
//! heavier per-RM load and bigger failure blast radius. Fixed 64-peer
//! overlay, `max_domain_size` swept.

use crate::{base_scenario, f2, f3, pct, Table};
use arm_sim::Simulation;
use arm_util::SimTime;

/// Sweep the maximum domain size.
pub fn run(quick: bool) -> Vec<Table> {
    let sizes: Vec<usize> = if quick {
        vec![8, 32]
    } else {
        vec![4, 8, 16, 32, 64]
    };
    let mut t = Table::new(
        "Domain-size sweep at 64 peers (4 geographic clusters of 16)",
        &[
            "max domain size",
            "final domains",
            "goodput",
            "redirects",
            "gossip msgs",
            "ctrl msg/peer/s",
            "mean fairness",
        ],
    );
    for size in sizes {
        let mut cfg = base_scenario(91);
        cfg.clusters = 4;
        cfg.peers_per_cluster = 16;
        cfg.horizon = SimTime::from_secs(180);
        cfg.workload.arrival_rate = 1.0;
        cfg.protocol.max_domain_size = size;
        let peers = cfg.num_peers();
        let horizon = cfg.horizon.as_secs_f64();
        let r = Simulation::new(cfg).run();
        let gossip = r.messages.get("gossip").map(|(c, _)| *c).unwrap_or(0);
        t.row(vec![
            size.to_string(),
            r.final_domains.to_string(),
            pct(r.outcomes.goodput()),
            r.redirects.to_string(),
            gossip.to_string(),
            f2(r.control_msgs_per_peer_sec(peers, horizon)),
            f3(r.mean_fairness()),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smaller_domains_mean_more_rms() {
        let tables = run(true);
        let t = &tables[0];
        assert!(t.len() >= 2);
        let small_domains: usize = t.cell(0, 1).parse().unwrap();
        let large_domains: usize = t.cell(t.len() - 1, 1).parse().unwrap();
        assert!(
            small_domains > large_domains,
            "cap 8 → {small_domains} domains vs cap 32 → {large_domains}"
        );
        // Service still works in both regimes.
        for r in 0..t.len() {
            let goodput: f64 = t.cell(r, 2).trim_end_matches('%').parse().unwrap();
            assert!(goodput > 50.0, "goodput collapsed at row {r}: {goodput}%");
        }
    }
}
