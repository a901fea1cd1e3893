//! Regression tests for whole-schema mode (`shards == 0`): the suite of
//! the retired unsharded daemon engine, run on the router's one
//! whole-schema tuning group.

#[cfg(test)]
mod tests {
    use crate::arbiter::InteractiveRegistry;
    use crate::checkpoint::Manifest;
    use crate::config::{DriftThresholds, ServiceConfig};
    use crate::router::{offline_group_adapt, offline_group_snapshots, OverloadPolicy, Router};
    use isel_workload::synthetic::{self, SyntheticConfig};
    use isel_workload::Workload;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::io::Cursor;
    use std::sync::Arc;

    fn workload() -> Workload {
        synthetic::generate(&SyntheticConfig {
            tables: 2,
            attrs_per_table: 10,
            queries_per_table: 12,
            rows_base: 50_000,
            max_query_width: 3,
            update_fraction: 0.2,
            seed: 33,
        })
    }

    fn config() -> ServiceConfig {
        ServiceConfig {
            epoch_events: 16,
            window_epochs: 2,
            max_templates: 64,
            drift: DriftThresholds::always_adapt(),
            ..ServiceConfig::default()
        }
    }

    /// Sample `n` single-execution events from the workload's templates,
    /// frequency-weighted.
    fn sample_log(w: &Workload, n: usize, seed: u64) -> String {
        let mut rng = StdRng::seed_from_u64(seed);
        let total = w.total_frequency();
        let mut out = String::new();
        for _ in 0..n {
            let mut pick = rng.gen_range(0..total);
            let q = w
                .queries()
                .iter()
                .find(|q| {
                    if pick < q.frequency() {
                        true
                    } else {
                        pick -= q.frequency();
                        false
                    }
                })
                .expect("pick < total");
            let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
            let kind = if q.is_update() { r#","kind":"Update""# } else { "" };
            out.push_str(&format!(
                "{{\"table\":{},\"attrs\":[{}]{kind}}}\n",
                q.table().0,
                attrs.join(",")
            ));
        }
        out
    }

    #[test]
    fn daemon_replay_matches_offline_adapt() {
        let w = workload();
        let cfg = config();
        let log = sample_log(&w, 80, 5);

        let mut router = Router::new(w.schema().clone(), cfg.clone()).unwrap();
        let report = router
            .run_reader(Cursor::new(log.clone()), OverloadPolicy::Block, None, &[])
            .unwrap();
        assert_eq!(report.ingested, 80);
        assert_eq!(report.invalid, 0);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.epochs.len(), 5, "80 events / 16 per epoch");

        let snaps = offline_group_snapshots(Cursor::new(log), w.schema(), &cfg).unwrap();
        assert_eq!(snaps.len(), 1, "one whole-schema group");
        assert_eq!(snaps[&0].len(), 5);
        let offline = &offline_group_adapt(&snaps, &cfg)[&0];
        for (got, want) in report.epochs.iter().zip(offline) {
            assert_eq!(got.table, None, "whole-schema epochs carry no table");
            assert_eq!(&got.selection, want);
        }
        assert_eq!(&report.final_selection, offline.last().unwrap());
    }

    #[test]
    fn interactive_queries_are_answered_behind_preceding_events() {
        let w = workload();
        let mut router = Router::new(w.schema().clone(), config()).unwrap();
        let registry = Arc::new(InteractiveRegistry::new());
        router.set_interactive(Arc::clone(&registry));
        // 16 events seal one epoch, so the tuned frontier is published
        // before the barrier queries queued behind them are answered.
        let budget = router.arbiter().budget();
        let (tx, rx) = std::sync::mpsc::channel();
        let whatif = registry.register(tx);
        let (tx, tenant_rx) = std::sync::mpsc::channel();
        let tenant = registry.register(tx);
        let mut log = sample_log(&w, 16, 7);
        log.push_str(&format!(
            "{{\"control\":\"whatif\",\"budget\":{budget},\"token\":{whatif}}}\n"
        ));
        log.push_str(&format!(
            "{{\"control\":\"tenant\",\"table_group\":0,\"budget\":{budget},\"token\":{tenant}}}\n"
        ));
        router.run_reader(Cursor::new(log), OverloadPolicy::Block, None, &[]).unwrap();

        let reply = rx.recv().unwrap();
        let v: serde_json::Value = serde_json::from_str(&reply).unwrap();
        assert_eq!(v.get("budget").and_then(|b| b.as_u64()), Some(budget));
        let total = v.get("total_memory").and_then(|m| m.as_u64()).unwrap();
        assert!(total <= budget, "merged memory {total} within budget {budget}");
        assert_eq!(
            v.get("allocations").and_then(|a| a.as_array()).map(Vec::len),
            Some(1),
            "the whole-schema group is one tenant"
        );
        // The same question asked again is answered from maintained
        // state, byte-identically.
        assert_eq!(reply, router.arbiter().whatif(budget));
        assert!(
            tenant_rx.recv().unwrap().contains("tenant queries require --shards"),
            "per-tenant splits need per-table groups"
        );
    }

    #[test]
    fn invalid_lines_are_counted_not_fatal() {
        let w = workload();
        let mut router = Router::new(w.schema().clone(), config()).unwrap();
        let log = "garbage\n{\"table\":999,\"attrs\":[0]}\n\n";
        let report = router
            .run_reader(Cursor::new(log.to_owned()), OverloadPolicy::Block, None, &[])
            .unwrap();
        assert_eq!(report.invalid, 2);
        assert_eq!(report.ingested, 0);
        assert!(report.epochs.is_empty());
    }

    #[test]
    fn shutdown_control_stops_ingestion() {
        let w = workload();
        let q = &w.queries()[0];
        let attrs: Vec<String> = q.attrs().iter().map(|a| a.0.to_string()).collect();
        let event = format!("{{\"table\":{},\"attrs\":[{}]}}\n", q.table().0, attrs.join(","));
        let log = format!("{event}{}\n{event}", r#"{"control":"shutdown"}"#);
        let mut router = Router::new(w.schema().clone(), config()).unwrap();
        let report =
            router.run_reader(Cursor::new(log), OverloadPolicy::Block, None, &[]).unwrap();
        assert_eq!(report.ingested, 1, "events after shutdown are not read");
    }

    #[test]
    fn checkpoint_control_writes_in_stream_order() {
        let w = workload();
        let dir = std::env::temp_dir().join(format!("isel-whole-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ctl.json");
        let mut log = sample_log(&w, 20, 9);
        log.push_str("{\"control\":\"checkpoint\"}\n");
        let mut router = Router::new(w.schema().clone(), config()).unwrap();
        let report = router
            .run_reader(Cursor::new(log), OverloadPolicy::Block, Some(&path), &[])
            .unwrap();
        // One from the control line, one final at shutdown.
        assert_eq!(report.checkpoints_written, 2);
        let shards = Manifest::load(&path).unwrap().load_shards(&path).unwrap();
        assert_eq!(shards.len(), 1, "whole-schema mode writes one shard file");
        assert_eq!(shards[0].ingested, 20);
        assert_eq!(shards[0].groups.len(), 1);
        assert!(shards[0].groups[0].is_whole_schema());
        assert_eq!(shards[0].groups[0].epoch, 1, "16 of 20 events sealed one epoch");
        std::fs::remove_dir_all(&dir).ok();
    }
}
