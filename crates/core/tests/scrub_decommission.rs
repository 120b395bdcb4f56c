//! End-to-end tests of the corruption-detection (scrubber),
//! decommissioning and replication paths (paper §5 repair mechanisms).

use octopus_common::{
    Block, BlockData, BlockId, ClientLocation, ClusterConfig, GenStamp, ReplicationVector,
    StorageTier, WorkerId, MB,
};
use octopus_core::Cluster;
use octopus_storage::MemoryStore;

fn config() -> ClusterConfig {
    ClusterConfig::test_cluster(6, 64 * MB, MB)
}

fn payload(len: usize, seed: u64) -> Vec<u8> {
    let octopus_common::BlockData::Real(b) = octopus_common::BlockData::generate_real(len, seed)
    else {
        unreachable!()
    };
    b.to_vec()
}

/// Injects silent corruption into one replica of the first block of
/// `path` (the in-memory cluster backs every medium with `MemoryStore`).
fn corrupt_first_replica(cluster: &Cluster, path: &str) -> octopus_common::Location {
    let blocks = cluster
        .master()
        .get_file_block_locations(path, 0, u64::MAX, ClientLocation::OffCluster)
        .unwrap();
    let victim = blocks[0].locations[0];
    let worker = cluster.worker(victim.worker).unwrap();
    let medium = worker.medium(victim.media).unwrap();
    let mem = medium
        .store
        .as_any()
        .downcast_ref::<MemoryStore>()
        .expect("in-memory cluster uses MemoryStore");
    mem.corrupt(blocks[0].block.id).unwrap();
    victim
}

#[test]
fn scrub_detects_and_heals_silent_corruption() {
    let cluster = Cluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 1);
    client.write_file("/scrub", &data, ReplicationVector::from_replication_factor(3)).unwrap();
    let victim = corrupt_first_replica(&cluster, "/scrub");

    // The scrubber finds exactly the corrupt replica and deletes it.
    assert_eq!(cluster.run_scrub_round().unwrap(), 1);
    let after = cluster
        .master()
        .get_file_block_locations("/scrub", 0, u64::MAX, ClientLocation::OffCluster)
        .unwrap();
    assert_eq!(after[0].locations.len(), 2);
    assert!(!after[0].locations.contains(&victim));

    // The replication monitor restores the third replica; data verifies.
    cluster.run_replication_round().unwrap();
    let healed = client.get_file_block_locations("/scrub", 0, u64::MAX).unwrap();
    assert_eq!(healed[0].locations.len(), 3);
    assert_eq!(client.read_file("/scrub").unwrap(), data);
    // A follow-up scrub is clean.
    assert_eq!(cluster.run_scrub_round().unwrap(), 0);
}

#[test]
fn client_read_fails_over_around_corruption_before_scrub() {
    // Even before the scrubber runs, a reader hitting the corrupt replica
    // fails over to a healthy one (§4.1).
    let cluster = Cluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 2);
    client.write_file("/failover", &data, ReplicationVector::from_replication_factor(3)).unwrap();
    corrupt_first_replica(&cluster, "/failover");
    assert_eq!(client.read_file("/failover").unwrap(), data);
}

#[test]
fn vanished_replica_heals_via_block_report() {
    // Silent data loss (replica deleted behind the master's back): the
    // next block report reconciles and the monitor re-replicates.
    let cluster = Cluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 3);
    client.write_file("/lost", &data, ReplicationVector::from_replication_factor(3)).unwrap();
    let blocks = client.get_file_block_locations("/lost", 0, u64::MAX).unwrap();
    let victim = blocks[0].locations[0];
    cluster.worker(victim.worker).unwrap().delete_block(victim.media, blocks[0].block.id).unwrap();

    cluster.send_block_reports().unwrap();
    cluster.run_replication_round().unwrap();
    let healed = client.get_file_block_locations("/lost", 0, u64::MAX).unwrap();
    assert_eq!(healed[0].locations.len(), 3);
    assert_eq!(client.read_file("/lost").unwrap(), data);
}

#[test]
fn decommission_drains_and_retires_a_worker() {
    let cluster = Cluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    client.mkdir("/d").unwrap();
    for i in 0..6 {
        client
            .write_file(
                &format!("/d/f{i}"),
                &payload(MB as usize, 10 + i),
                ReplicationVector::from_replication_factor(3),
            )
            .unwrap();
    }
    let target = WorkerId(2);
    cluster.decommission_worker(target).unwrap();

    // Every file remains fully replicated without the retired worker.
    for i in 0..6 {
        let path = format!("/d/f{i}");
        let blocks = client.get_file_block_locations(&path, 0, u64::MAX).unwrap();
        for b in &blocks {
            assert_eq!(b.locations.len(), 3, "{path} under-replicated");
            assert!(b.locations.iter().all(|l| l.worker != target));
        }
        assert_eq!(client.read_file(&path).unwrap().len(), MB as usize);
    }
    // New writes avoid the retired worker too.
    client
        .write_file(
            "/after",
            &payload(MB as usize, 99),
            ReplicationVector::from_replication_factor(3),
        )
        .unwrap();
    let blocks = client.get_file_block_locations("/after", 0, u64::MAX).unwrap();
    assert!(blocks[0].locations.iter().all(|l| l.worker != target));
}

#[test]
fn decommissioning_worker_keeps_serving_reads_while_draining() {
    let cluster = Cluster::start(config()).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let data = payload(MB as usize, 4);
    client.write_file("/serve", &data, ReplicationVector::from_replication_factor(3)).unwrap();
    let blocks = client.get_file_block_locations("/serve", 0, u64::MAX).unwrap();
    let w = blocks[0].locations[0].worker;
    cluster.master().start_decommission(w);
    // Reads still work mid-drain (the worker is live, only barred from
    // receiving new replicas).
    assert_eq!(client.read_file("/serve").unwrap(), data);
    assert!(!cluster.master().decommission_complete(WorkerId(99)), "unknown worker");
}

#[test]
fn replication_round_survives_a_failing_target() {
    // One worker, so both copies below target its only SSD. The SSD is
    // filled behind the master's back: the master still sees it empty and
    // schedules both, but only the small block still fits.
    let cluster = Cluster::start(ClusterConfig::test_cluster(1, 4 * MB, MB)).unwrap();
    let client = cluster.client(ClientLocation::OffCluster);
    let hdd_only = ReplicationVector::msh(0, 0, 1);
    client.write_file("/big", &payload(MB as usize, 7), hdd_only).unwrap();
    client.write_file("/small", &payload(64 << 10, 8), hdd_only).unwrap();
    let worker = cluster.worker(WorkerId(0)).unwrap();
    let ssd = worker.media().iter().find(|m| m.tier == StorageTier::Ssd.id()).unwrap().id;
    let filler = Block { id: BlockId(u64::MAX - 1), gen: GenStamp(1), len: 3 * MB + MB / 2 };
    worker.write_block(ssd, filler, &BlockData::generate_real(filler.len as usize, 9)).unwrap();

    // /big is scanned first (older inode), so its failing copy precedes
    // the copy that must still run.
    for path in ["/big", "/small"] {
        client.set_replication(path, ReplicationVector::msh(0, 1, 1)).unwrap();
    }
    assert_eq!(cluster.run_replication_round().unwrap(), 2);

    let master = cluster.master();
    assert_eq!(master.scheduled_bytes(ssd), 0, "the failed copy leaked its reservation");
    let locations = |path| {
        master.get_file_block_locations(path, 0, u64::MAX, ClientLocation::OffCluster).unwrap()
    };
    let big = &locations("/big")[0];
    assert_eq!(big.locations.len(), 1);
    assert!(master.pending_locations(big.block.id).is_empty());
    assert_eq!(locations("/small")[0].locations.len(), 2, "the next task in the round never ran");
}
