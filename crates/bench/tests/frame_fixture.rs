//! Byte-level pin of every on-disk frame the service writes: one `ACRS`
//! run-store entry, one `ACPK` parked frame wrapping an `ACKP` checkpoint,
//! and an `ACJL` journal accept record followed by its done record.
//!
//! Every other store, checkpoint and journal test round-trips through the
//! code that writes the bytes, so a layout that shifted by a byte would
//! still pass them — and would silently orphan every store entry, parked
//! checkpoint and journal already on disk. This test compares against
//! bytes committed before any framing code was refactored: the sample
//! values must encode to exactly the fixture, and the fixture must decode
//! and re-encode to itself. The fixture has no regeneration switch: a
//! deliberate layout change is a format version bump, never an edit of
//! the pinned bytes.

use adacomm::SchedulerState;
use adacomm_bench::server::journal::Journal;
use adacomm_bench::server::protocol::{Command, Request, RunRequest};
use adacomm_bench::{LoadOutcome, ParkedOutcome, RunStore};
use gradcomp::{CodecSpec, ErrorFeedback};
use pasgd_sim::{
    ClusterCheckpoint, FaultCheckpoint, FaultStats, RunCheckpoint, RunTrace, TracePoint,
    WorkerCheckpoint,
};
use std::fs;
use std::path::{Path, PathBuf};
use tensor::Tensor;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/frames.hex");

/// The key every frame is written under (store entries echo it; journal
/// records carry it).
const KEY: &str = "fixture|concept|fixed|tau=4";

/// Hex digits per fixture line.
const HEX_PER_LINE: usize = 64;

/// The run store's unit-test trace: a NaN loss, a −0.0 learning rate and
/// an infinite accuracy, so raw-bit float encoding is pinned too.
fn sample_trace() -> RunTrace {
    RunTrace {
        name: "store-test".into(),
        points: vec![
            TracePoint {
                clock: 1.5,
                iterations: 10,
                epoch: 0.25,
                train_loss: f32::NAN,
                test_accuracy: 0.5,
                tau: 4,
                lr: -0.0,
                comm_bytes: 1024.0,
            },
            TracePoint {
                clock: 3.0,
                iterations: 20,
                epoch: 0.5,
                train_loss: 0.9,
                test_accuracy: f64::INFINITY,
                tau: 2,
                lr: 0.05,
                comm_bytes: 2048.0,
            },
        ],
        peak_payload_bytes: 512.0,
        rounds: 5,
    }
}

/// A checkpoint with every optional section present: scheduler state with
/// a codec, block-momentum planes (one NaN) and a fault frame.
fn sample_checkpoint() -> RunCheckpoint {
    let point = |k: u64| TracePoint {
        clock: k as f64 * 1.5,
        iterations: k * 10,
        epoch: k as f64 * 0.25,
        train_loss: 1.0 / (k + 1) as f32,
        test_accuracy: 0.5 + 0.01 * k as f64,
        tau: (k + 1) as usize,
        lr: 0.1,
        comm_bytes: k as f64 * 780.0,
    };
    RunCheckpoint {
        points: vec![point(0), point(1)],
        interval: 3,
        last_loss: 0.42,
        tau: 4,
        next_record: 12.0,
        initial_loss: 1.3,
        initial_lr: 0.1,
        scheduler: SchedulerState {
            prev_tau: Some(4),
            prev_lr_bits: Some(0.1f32.to_bits()),
            codec: Some(CodecSpec::TopK { ratio: 0.05 }),
        },
        cluster: ClusterCheckpoint {
            clock: 11.25,
            iterations: 20,
            rounds: 5,
            comm_time: 2.5,
            compute_time: 8.75,
            comm_bytes: 3900.0,
            peak_payload_bytes: 780.0,
            current_lr: 0.1,
            codec: CodecSpec::TopK { ratio: 0.05 },
            delay_rng: [1, 2, 3, 4],
            block: Some((vec![0.5, -0.5], vec![1.0, f32::NAN])),
            fault: Some(FaultCheckpoint {
                rng: [13, 14, 15, 16],
                down_until: vec![0, 9],
                missed: vec![0, 3],
                stats: FaultStats {
                    crashes: 2,
                    rejoins: 1,
                    drops: 4,
                    corruptions: 1,
                    stragglers: 3,
                    retransmits: 5,
                    degraded_rounds: 6,
                },
            }),
            workers: vec![WorkerCheckpoint {
                params: vec![1.0, -0.0],
                momentum_buffers: vec![Tensor::from_vec(vec![0.25, 0.75], &[2]).unwrap()],
                rng: [5, 6, 7, 8],
                comm_rng: [9, 10, 11, 12],
                steps_taken: 20,
                shuffle_order: vec![1, 0, 2],
                shuffle_cursor: 2,
                epochs_completed: 6,
                feedback: ErrorFeedback::new(),
                sync_reference: vec![1.0, -0.0],
                track_reference: true,
            }],
        },
    }
}

fn sample_request() -> Request {
    Request {
        id: None,
        cmd: Command::Run(RunRequest {
            scenario: "concept".into(),
            scheduler: "fixed".into(),
            tau: 4,
            budget: Some((6.0, 2.0)),
            deadline_ms: None,
            panic: false,
        }),
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "adacomm-frame-fixture-{}-{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The journal file after `write` ran against a fresh journal at `path`.
fn journal_bytes(path: &Path, write: impl FnOnce(&Journal)) -> Vec<u8> {
    let _ = fs::remove_file(path);
    write(&Journal::open(path).expect("open journal"));
    fs::read(path).expect("read journal")
}

/// The four frames the sample values encode to, by the public writers.
fn encode_samples(dir: &Path) -> Vec<(&'static str, Vec<u8>)> {
    let store = RunStore::new(dir.join("store"));
    let entry = store.save(KEY, &sample_trace()).expect("save entry");
    let parked = store.park(KEY, &sample_checkpoint()).expect("park");
    let journal = dir.join("journal.log");
    let accept = journal_bytes(&journal, |j| {
        j.append_accept(KEY, &sample_request()).expect("accept")
    });
    let both = journal_bytes(&journal, |j| {
        j.append_accept(KEY, &sample_request()).expect("accept");
        j.append_done(KEY).expect("done");
    });
    vec![
        ("acrs entry", fs::read(entry).expect("read entry")),
        (
            "acpk parked (wraps ackp)",
            fs::read(parked).expect("read park"),
        ),
        ("acjl accept", accept.clone()),
        ("acjl done", both[accept.len()..].to_vec()),
    ]
}

fn render(frames: &[(&str, Vec<u8>)]) -> String {
    let mut out = String::from(
        "# Pinned frame bytes; see tests/frame_fixture.rs. Never regenerate\n\
         # for a layout change: bump the format version instead.\n",
    );
    for (name, bytes) in frames {
        out.push_str(&format!("== {name} ({} bytes)\n", bytes.len()));
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        for line in hex.as_bytes().chunks(HEX_PER_LINE) {
            out.push_str(std::str::from_utf8(line).expect("ascii hex"));
            out.push('\n');
        }
    }
    out
}

/// The fixture's frames, in file order.
fn pinned() -> Vec<(String, Vec<u8>)> {
    let text = fs::read_to_string(FIXTURE).expect("read the frame fixture");
    let mut frames: Vec<(String, Vec<u8>)> = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        if let Some(header) = line.strip_prefix("== ") {
            let name = header.split(" (").next().expect("section name");
            frames.push((name.to_string(), Vec::new()));
            continue;
        }
        let bytes = &mut frames.last_mut().expect("hex before any section").1;
        for pair in line.as_bytes().chunks(2) {
            let digits = std::str::from_utf8(pair).expect("ascii hex");
            bytes.push(u8::from_str_radix(digits, 16).expect("hex byte"));
        }
    }
    frames
}

fn frame<'a>(frames: &'a [(String, Vec<u8>)], name: &str) -> &'a [u8] {
    &frames
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("fixture has no {name:?} section"))
        .1
}

#[test]
fn sample_frames_encode_to_the_pinned_bytes() {
    let dir = scratch("encode");
    let frames = encode_samples(&dir);
    let expected = fs::read_to_string(FIXTURE).expect("read the frame fixture");
    assert!(
        render(&frames) == expected,
        "a frame layout moved; the first differing frame:\n{}",
        frames
            .iter()
            .zip(pinned())
            .find(|((_, got), (_, want))| got != want)
            .map(|((name, got), (_, want))| format!("{name}: {got:02x?}\n vs pinned {want:02x?}"))
            .unwrap_or_else(|| "(section names or framing differ)".into())
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn pinned_entry_decodes_and_reencodes_byte_equal() {
    let frames = pinned();
    let bytes = frame(&frames, "acrs entry");
    let dir = scratch("acrs");
    let from = RunStore::new(dir.join("from"));
    fs::create_dir_all(from.dir()).unwrap();
    fs::write(from.entry_path(KEY), bytes).unwrap();
    let trace = match from.load(KEY) {
        LoadOutcome::Hit(trace) => trace,
        other => panic!("the pinned entry must load, got {other:?}"),
    };
    assert!(trace.points[0].train_loss.is_nan());
    assert_eq!(trace.points[0].lr.to_bits(), (-0.0f32).to_bits());
    let to = RunStore::new(dir.join("to"));
    let path = to.save(KEY, &trace).expect("save");
    assert_eq!(fs::read(path).unwrap(), bytes);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn pinned_parked_frame_decodes_and_reencodes_byte_equal() {
    let frames = pinned();
    let bytes = frame(&frames, "acpk parked");
    let dir = scratch("acpk");
    let from = RunStore::new(dir.join("from"));
    let path = from.parked_path(KEY);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(&path, bytes).unwrap();
    let checkpoint = match from.load_parked(KEY) {
        ParkedOutcome::Hit(ck) => ck,
        other => panic!("the pinned parked frame must load, got {other:?}"),
    };
    assert!(checkpoint.cluster.block.is_some());
    assert!(checkpoint.cluster.fault.is_some());
    // The parked payload is the checkpoint's own self-validating frame.
    let ackp = checkpoint.to_bytes();
    assert!(
        bytes.ends_with(&ackp),
        "ACPK must wrap the whole ACKP frame"
    );
    assert_eq!(&ackp[..4], b"ACKP");
    let to = RunStore::new(dir.join("to"));
    let path = to.park(KEY, &checkpoint).expect("park");
    assert_eq!(fs::read(path).unwrap(), bytes);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn pinned_journal_records_decode_and_reencode_byte_equal() {
    let frames = pinned();
    let accept = frame(&frames, "acjl accept");
    let done = frame(&frames, "acjl done");
    let dir = scratch("acjl");
    let path = dir.join("journal.log");

    fs::write(&path, accept).unwrap();
    let replay = Journal::replay(&path);
    assert_eq!((replay.records, replay.rejected), (1, 0));
    assert!(!replay.torn_tail);
    let [(key, request)] = replay.pending.as_slice() else {
        panic!("one pending accept expected, got {:?}", replay.pending);
    };
    assert_eq!((key.as_str(), request), (KEY, &sample_request()));

    let both = [accept, done].concat();
    let reencoded = journal_bytes(&path, |j| {
        j.append_accept(key, request).expect("accept");
        j.append_done(key).expect("done");
    });
    assert_eq!(reencoded, both);
    let replay = Journal::replay(&path);
    assert_eq!((replay.records, replay.rejected), (2, 0));
    assert!(!replay.torn_tail && replay.pending.is_empty());
    let _ = fs::remove_dir_all(&dir);
}
