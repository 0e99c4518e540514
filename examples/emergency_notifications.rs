//! The emergency-notification scenario of the paper's prototype
//! (Section VI), running on the **threaded** deployment: a data-cluster
//! thread and a broker thread connected by channels, real clients
//! receiving push notifications, and virtual time compressed 10 000×
//! so the repetitive channels' periods pass in milliseconds.
//!
//! Run with: `cargo run --example emergency_notifications`

use std::sync::Arc;
use std::time::Duration;

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
        10_000.0,
        Observability::detached(),
    );

    // Three residents subscribe to different interests.
    let mut city = EmergencyCity::new(EmergencyCityConfig::default(), 7)?;
    let clients: Vec<_> = (0..3)
        .map(|i| deployment.client(SubscriberId::new(i)))
        .collect();
    for (i, client) in clients.iter().enumerate() {
        let (channel, params) = city.random_interest();
        let fs = client.subscribe(&channel, params)?;
        println!("subscriber {i} -> {channel} ({fs})");
    }
    // One shared hot interest so the cache is actually shared.
    let flood = ParamBindings::from_pairs([("etype", DataValue::from("flood"))]);
    let shared: Vec<_> = clients
        .iter()
        .map(|c| {
            c.subscribe("EmergenciesOfType", flood.clone())
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
        deployment.publish("EmergencyReports", report)?;
        deployment.tick()?;
        deployment.maintain();

        // Drain client notifications and retrieve.
        for (i, client) in clients.iter().enumerate() {
            while let Ok(event) = client.events.try_recv() {
                let ClientEvent::ResultsAvailable { frontend, .. } = event;
                let delivery = client.get_results(frontend)?;
                delivered += delivery.total_objects();
                if delivery.total_objects() > 0 && delivered % 50 == 1 {
                    println!(
                        "subscriber {i}: {} object(s) on {frontend} \
                         ({} hit / {} miss, latency {})",
                        delivery.total_objects(),
                        delivery.hit_objects,
                        delivery.miss_objects,
                        delivery.latency
                    );
                }
            }
        }
        std::thread::sleep(Duration::from_micros(300));
    }

    let (metrics, hit_ratio) = deployment.broker_metrics();
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
