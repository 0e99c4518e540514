//! The emergency-notification scenario of the paper's prototype
//! (Section VI), running the deployment on OS threads
//! (`Exec::threads`): a data-cluster thread and a broker thread
//! connected by channels, real clients receiving push notifications,
//! and virtual time compressed 10 000× so the repetitive channels'
//! periods pass in milliseconds.
//!
//! Run with: `cargo run --example emergency_notifications`

use std::sync::Arc;

use big_active_data::broker::BrokerConfig;
use big_active_data::prelude::*;
use big_active_data::proto::ClientEvent;
use big_active_data::types::BadError;
use big_active_data::workload::{EmergencyCity, EmergencyCityConfig, TABLE_III_CHANNELS};

fn main() -> Result<(), BadError> {
    // Build the Section VI cluster: emergency datasets + Table III channels.
    let cluster = big_active_data::proto::harness::build_emergency_cluster()?;
    println!("channels registered:");
    for bql in TABLE_III_CHANNELS {
        println!("  {}", bql.split(" from ").next().unwrap_or(bql));
    }

    // Boot the two nodes with 10 000x time compression.
    let deployment = Deployment::start(
        PolicyName::Ttl,
        BrokerConfig::default(),
        cluster,
        Exec::threads(10_000.0),
        Observability::detached(),
    );

    // Three residents subscribe to different interests.
    let mut city = EmergencyCity::new(EmergencyCityConfig::default(), 7)?;
    let (events_tx, events) = deployment.exec().channel();
    let clients: Vec<_> = (0..3)
        .map(|i| deployment.client(SubscriberId::new(i), &events_tx))
        .collect();
    for (i, client) in clients.iter().enumerate() {
        let (channel, params) = city.random_interest();
        let fs = client.subscribe(&channel, params, deployment.exec().now())?;
        println!("subscriber {i} -> {channel} ({fs})");
    }
    // One shared hot interest so the cache is actually shared.
    let flood = ParamBindings::from_pairs([("etype", DataValue::from("flood"))]);
    let shared: Vec<_> = clients
        .iter()
        .map(|c| {
            c.subscribe("EmergenciesOfType", flood.clone(), deployment.exec().now())
                .expect("subscribe")
        })
        .collect();

    // A publisher emits geo-tagged reports; ticks run the repetitive
    // channels (10-60 s virtual periods, microseconds real).
    let mut delivered = 0u64;
    for round in 0..400 {
        let mut report = city.next_report();
        if round % 3 == 0 {
            // Force some floods so the shared channel fires often.
            if let DataValue::Object(ref mut map) = report {
                Arc::make_mut(map).insert("kind".into(), DataValue::from("flood"));
            }
        }
        let now = deployment.exec().now();
        deployment.publish("EmergencyReports", now, report)?;
        deployment.tick(now)?;
        deployment.maintain(now);

        // Wait up to three virtual seconds (300 µs) for pushes, and
        // retrieve what each one announces.
        while let Some(event) = events.recv_timeout(SimDuration::from_secs(3)) {
            let ClientEvent {
                subscriber,
                frontend,
                ..
            } = event;
            let client = &clients[subscriber.as_u64() as usize];
            let Some(delivery) = client.get_results(frontend, deployment.exec().now())? else {
                continue;
            };
            delivered += delivery.total_objects();
            if delivery.total_objects() > 0 && delivered % 50 == 1 {
                println!(
                    "{subscriber}: {} object(s) on {frontend} \
                     ({} hit / {} miss, latency {})",
                    delivery.total_objects(),
                    delivery.hit_objects,
                    delivery.miss_objects,
                    delivery.latency
                );
            }
        }
    }

    let stats = deployment.broker_stats()?;
    let (metrics, hit_ratio) = (stats.delivery, stats.cache.hit_ratio().unwrap_or(0.0));
    println!("\n--- after 400 publications ---");
    println!("deliveries:        {}", metrics.deliveries);
    println!("objects delivered: {}", metrics.delivered_objects);
    println!("bytes delivered:   {}", metrics.delivered_bytes);
    println!("cache hit ratio:   {:.1}%", hit_ratio * 100.0);
    if let Some(latency) = metrics.mean_latency() {
        println!("mean latency:      {latency}");
    }
    assert!(delivered > 0, "the pipeline should deliver notifications");
    let _ = shared;
    deployment.shutdown();
    Ok(())
}
