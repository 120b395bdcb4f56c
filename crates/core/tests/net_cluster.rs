//! End-to-end tests of the networked deployment: real TCP, real pipeline
//! forwarding between worker data servers, real heartbeat threads.

use octopus_common::{ClientLocation, ClusterConfig, FsError, ReplicationVector, WorkerId, MB};
use octopus_core::NetCluster;

fn config() -> ClusterConfig {
    // Fast heartbeats so background threads exercise the path during the
    // test's lifetime.
    let mut c = ClusterConfig::test_cluster(4, 64 * MB, MB);
    c.heartbeat_ms = 20;
    c
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let octopus_common::BlockData::Real(b) = octopus_common::BlockData::generate_real(len, seed)
    else {
        unreachable!()
    };
    b.to_vec()
}

#[test]
fn networked_write_read_lifecycle() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);

    client.mkdir("/data").unwrap();
    let data = payload((2 * MB + 777) as usize, 1);
    client.write_file("/data/f", &data, ReplicationVector::from_replication_factor(3)).unwrap();

    // The pipeline stored 3 replicas per block, committed over RPC.
    let blocks = client.get_file_block_locations("/data/f", 0, u64::MAX).unwrap();
    assert_eq!(blocks.len(), 3);
    for b in &blocks {
        assert_eq!(b.locations.len(), 3);
    }

    // Read back over the network.
    assert_eq!(client.read_file("/data/f").unwrap(), data);

    // Namespace operations.
    let st = client.status("/data/f").unwrap();
    assert_eq!(st.len, data.len() as u64);
    assert!(st.complete);
    let ls = client.list("/data").unwrap();
    assert_eq!(ls.len(), 1);
    assert_eq!(ls[0].name, "f");

    client.rename("/data/f", "/data/g").unwrap();
    assert_eq!(client.read_file("/data/g").unwrap(), data);

    // Tier reports over the wire.
    let reports = client.get_storage_tier_reports().unwrap();
    assert_eq!(reports.len(), 3);
    assert!(reports.iter().any(|r| r.name == "Memory" && r.volatile));

    // Delete invalidates replicas at the workers.
    client.delete("/data/g", false).unwrap();
    assert!(matches!(client.read_file("/data/g"), Err(FsError::NotFound(_))));
    let stored: u64 = cluster.workers().iter().map(|w| w.used()).sum();
    assert_eq!(stored, 0);
}

#[test]
fn pinned_tiers_respected_over_the_network() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 2);
    client.write_file("/pin", &data, ReplicationVector::msh(1, 1, 1)).unwrap();
    let blocks = client.get_file_block_locations("/pin", 0, u64::MAX).unwrap();
    let mut tiers: Vec<u8> = blocks[0].locations.iter().map(|l| l.tier.0).collect();
    tiers.sort_unstable();
    assert_eq!(tiers, vec![0, 1, 2]);
    assert_eq!(client.read_file("/pin").unwrap(), data);
}

#[test]
fn remote_errors_preserve_variants() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    assert!(matches!(client.read_file("/nope"), Err(FsError::NotFound(_))));
    client
        .write_file("/dup", &payload(1024, 3), ReplicationVector::from_replication_factor(2))
        .unwrap();
    assert!(matches!(
        client.write_file("/dup", &payload(1024, 4), ReplicationVector::from_replication_factor(2)),
        Err(FsError::AlreadyExists(_))
    ));
    // An invalid vector is rejected by the remote master with the right
    // variant too.
    assert!(matches!(
        client.set_replication("/dup", ReplicationVector::EMPTY),
        Err(FsError::InvalidReplicationVector(_))
    ));
}

#[test]
fn read_fails_over_when_a_data_server_loses_the_replica() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 5);
    client.write_file("/ha", &data, ReplicationVector::from_replication_factor(3)).unwrap();
    let blocks = client.get_file_block_locations("/ha", 0, u64::MAX).unwrap();
    // Remove the best replica behind the system's back.
    let victim = blocks[0].locations[0];
    cluster
        .workers()
        .iter()
        .find(|w| w.id() == victim.worker)
        .unwrap()
        .delete_block(victim.media, blocks[0].block.id)
        .unwrap();
    assert_eq!(client.read_file("/ha").unwrap(), data, "failover to the next replica");
}

#[test]
fn writer_local_client_gets_local_first_replica() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OnWorker(WorkerId(1)));
    client
        .write_file(
            "/local",
            &payload(MB as usize, 6),
            ReplicationVector::from_replication_factor(3),
        )
        .unwrap();
    let blocks = client.get_file_block_locations("/local", 0, u64::MAX).unwrap();
    assert!(blocks[0].locations.iter().any(|l| l.worker == WorkerId(1)));
}

#[test]
fn heartbeat_threads_keep_master_view_fresh() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client.write_file("/hb", &payload(MB as usize, 7), ReplicationVector::msh(0, 0, 2)).unwrap();
    // Wait a few heartbeat intervals; the master's tier report must show
    // the consumed HDD capacity without any manual pumping.
    std::thread::sleep(std::time::Duration::from_millis(120));
    let reports = client.get_storage_tier_reports().unwrap();
    let hdd = reports.iter().find(|r| r.name == "HDD").unwrap();
    assert_eq!(hdd.stats.capacity - hdd.stats.remaining, 2 * MB);
}

#[test]
fn concurrent_remote_writers_one_winner() {
    let cluster = NetCluster::start(config()).unwrap();
    let winners = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for seed in 0..6u64 {
            let client = cluster.client(ClientLocation::OffCluster);
            let winners = &winners;
            s.spawn(move || {
                let r = client.write_file(
                    "/contended",
                    &payload((MB + seed) as usize, seed),
                    ReplicationVector::from_replication_factor(2),
                );
                match r {
                    Ok(()) => {
                        winners.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                    Err(FsError::AlreadyExists(_)) | Err(FsError::LeaseConflict(_)) => {}
                    Err(e) => panic!("unexpected error {e:?}"),
                }
            });
        }
    });
    assert_eq!(winners.load(std::sync::atomic::Ordering::Relaxed), 1);
    // The surviving file is complete and fully readable.
    let client = cluster.client(ClientLocation::OffCluster);
    let st = client.status("/contended").unwrap();
    assert!(st.complete);
    assert_eq!(client.read_file("/contended").unwrap().len() as u64, st.len);
}

#[test]
fn remote_lease_blocks_second_writer_on_open_file() {
    let cluster = NetCluster::start(config()).unwrap();
    // Alice (holder 777) opens a file directly at the master and leaves it
    // open; a remote client can neither recreate nor close it.
    cluster
        .master()
        .create_file_as(
            "/open",
            ReplicationVector::from_replication_factor(2),
            None,
            octopus_master::ClientId(777),
        )
        .unwrap();
    let bob = cluster.client(ClientLocation::OffCluster);
    assert!(matches!(
        bob.write_file("/open", &payload(1024, 1), ReplicationVector::from_replication_factor(2)),
        Err(FsError::AlreadyExists(_)) | Err(FsError::LeaseConflict(_))
    ));
}

#[test]
fn edits_since_over_rpc_decodes_to_the_masters_ops() {
    use octopus_core::net::proto::{MasterRequest, MasterResponse};
    use octopus_core::net::worker_server::call_master;
    use octopus_master::editlog::decode_stream;

    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client.mkdir("/e/a").unwrap();
    client
        .write_file("/e/a/f", &payload(1500, 3), ReplicationVector::from_replication_factor(2))
        .unwrap();
    client.rename("/e/a/f", "/e/g").unwrap();
    client.delete("/e/a", true).unwrap();
    let master = cluster.master();
    let n = master.edit_count();
    assert!(n >= 6, "mkdir, create, block, close, rename, delete: {n}");
    for k in [0, 1, n / 2, n - 1, n, n + 5] {
        let MasterResponse::Edits(buf) =
            call_master(cluster.master_addr(), &MasterRequest::EditsSince(k as u64)).unwrap()
        else {
            panic!("EditsSince answered with another response");
        };
        assert_eq!(decode_stream(&buf).unwrap(), master.edits_since(k), "EditsSince({k})");
    }
}

#[test]
fn networked_backup_tails_and_takes_over() {
    use octopus_core::net::NetBackup;

    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 11);
    client.mkdir("/prod").unwrap();
    client.write_file("/prod/db", &data, ReplicationVector::from_replication_factor(2)).unwrap();

    // The backup tails the primary over RPC.
    let backup = NetBackup::start(cluster.master_addr(), 10).unwrap();
    backup.sync_now(cluster.master_addr()).unwrap();
    assert!(backup.applied() >= 4, "mkdir + create + block + close");

    // More activity lands via the background tailing thread.
    client
        .write_file("/prod/late", &payload(1024, 12), ReplicationVector::from_replication_factor(2))
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while backup.applied() < 7 {
        assert!(std::time::Instant::now() < deadline, "tail never caught up");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // Failover: the backup becomes primary; workers re-report blocks.
    let new_master = backup.take_over(cluster.master().config().clone()).unwrap();
    assert!(new_master.in_safe_mode());
    for w in cluster.workers() {
        new_master.register_worker(w.id(), w.rack(), w.net_bps(), 0);
        let (stats, conns) = w.heartbeat_stats();
        new_master.heartbeat(w.id(), stats, conns, 0).unwrap();
        new_master.block_report(w.id(), &w.block_report()).unwrap();
    }
    assert!(!new_master.in_safe_mode());
    let st = new_master.status("/prod/db").unwrap();
    assert_eq!(st.len, data.len() as u64);
    let blocks = new_master
        .get_file_block_locations("/prod/db", 0, u64::MAX, ClientLocation::OffCluster)
        .unwrap();
    assert_eq!(blocks[0].locations.len(), 2);
}

#[test]
fn networked_scrub_and_replication_heal_corruption() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 20);
    client.write_file("/heal", &data, ReplicationVector::from_replication_factor(3)).unwrap();

    // Corrupt one replica behind the system's back.
    let blocks = client.get_file_block_locations("/heal", 0, u64::MAX).unwrap();
    let victim = blocks[0].locations[0];
    let worker = cluster.workers().iter().find(|w| w.id() == victim.worker).unwrap();
    worker
        .medium(victim.media)
        .unwrap()
        .store
        .as_any()
        .downcast_ref::<octopus_storage::MemoryStore>()
        .unwrap()
        .corrupt(blocks[0].block.id)
        .unwrap();

    // Scrub over RPC finds and drops it; the replication round re-creates
    // it by pulling from a healthy peer over TCP.
    let round = cluster.run_scrub_round().unwrap();
    assert_eq!(round.corrupt_total(), 1);
    assert!(round.unreachable().is_empty());
    let after = client.get_file_block_locations("/heal", 0, u64::MAX).unwrap();
    assert_eq!(after[0].locations.len(), 2);
    let outcome = cluster.run_replication_round().unwrap();
    assert!(outcome.attempted >= 1);
    assert!(outcome.all_ok());
    let healed = client.get_file_block_locations("/heal", 0, u64::MAX).unwrap();
    assert_eq!(healed[0].locations.len(), 3);
    assert_eq!(client.read_file("/heal").unwrap(), data);
    // Clean fleet afterwards.
    assert_eq!(cluster.run_scrub_round().unwrap().corrupt_total(), 0);
}

#[test]
fn networked_set_replication_realized_by_monitor() {
    let cluster = NetCluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client.write_file("/mv", &payload(MB as usize, 21), ReplicationVector::msh(0, 0, 3)).unwrap();
    client.set_replication("/mv", ReplicationVector::msh(1, 0, 2)).unwrap();
    cluster.run_replication_round().unwrap();
    cluster.run_replication_round().unwrap();
    let blocks = client.get_file_block_locations("/mv", 0, u64::MAX).unwrap();
    let mems = blocks[0].locations.iter().filter(|l| l.tier.0 == 0).count();
    let hdds = blocks[0].locations.iter().filter(|l| l.tier.0 == 2).count();
    assert_eq!((mems, hdds), (1, 2), "move realized over the network");
}
