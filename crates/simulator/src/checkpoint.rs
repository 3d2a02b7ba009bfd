//! Mid-run checkpoints: a complete, bit-exact snapshot of an experiment at
//! an averaging-round boundary, plus the binary wire format for traces.
//!
//! A [`RunCheckpoint`] captures *everything* the interval driver and the
//! cluster evolve over a run — worker parameter planes, momentum buffers,
//! error-feedback residuals, RNG stream states, batch-shuffle state, the
//! simulated clock and counters, block-momentum planes, and the driver's
//! own loop variables (recorded points, interval index, τ, the scheduler's
//! exported state). Resuming from a checkpoint therefore continues the run
//! **bit-identically**: the trace of an interrupted-and-resumed run equals
//! the trace of the uninterrupted run float-for-float (see the
//! `checkpoint_resume` integration tests).
//!
//! The byte format is explicit little-endian (via `binio`) inside one
//! [`binio::frame`] (`ACKP`, no header fields, `u64` payload length) —
//! every decode path is fallible and validated, so a truncated or
//! bit-flipped checkpoint surfaces as a recoverable [`Err`], never a panic
//! and never a silently wrong resume. Floats travel as raw bits, which is
//! what makes resumed traces (and the cached [`RunTrace`]s the bench run
//! store persists with [`write_run_trace`]) byte-identical across
//! processes.

use crate::{FaultCheckpoint, RunTrace, TracePoint};
use adacomm::SchedulerState;
use binio::frame::{Format, LenWidth};
use binio::{ByteReader, ByteWriter, ReadError, ReadResult};
use gradcomp::{CodecSpec, ErrorFeedback};
use tensor::Tensor;

/// Version of the checkpoint byte format. Bump on any layout change:
/// readers reject other versions and the caller recomputes from scratch.
/// Version 2 added the optional fault-injection frame.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 2;

/// The checkpoint frame: **A**da**C**omm Chec**KP**oint, no header fields.
const FRAME: Format = Format {
    name: "checkpoint",
    magic: *b"ACKP",
    version: CHECKPOINT_FORMAT_VERSION,
    len: LenWidth::U64,
    max_payload: u64::MAX,
};

/// Full training state of one worker at a round boundary.
#[derive(Debug, Clone)]
pub struct WorkerCheckpoint {
    /// Flat parameter plane (layout of `Network::copy_params_into`).
    pub params: Vec<f32>,
    /// SGD momentum buffers, one per parameter tensor; empty before the
    /// first momentum step (or for momentum-free runs).
    pub momentum_buffers: Vec<Tensor>,
    /// Batch-RNG stream state.
    pub rng: [u64; 4],
    /// Codec-RNG stream state.
    pub comm_rng: [u64; 4],
    /// Local SGD steps taken so far.
    pub steps_taken: u64,
    /// Current epoch permutation of the worker's shard.
    pub shuffle_order: Vec<usize>,
    /// Position within the epoch permutation.
    pub shuffle_cursor: usize,
    /// Epoch boundaries crossed.
    pub epochs_completed: usize,
    /// Error-feedback residual memory.
    pub feedback: ErrorFeedback,
    /// Post-averaging reference parameters (empty unless tracking is on).
    pub sync_reference: Vec<f32>,
    /// Whether sync-reference tracking was enabled.
    pub track_reference: bool,
}

/// Full state of a [`PasgdCluster`](crate::PasgdCluster) at a round
/// boundary.
#[derive(Debug, Clone)]
pub struct ClusterCheckpoint {
    /// Simulated wall-clock seconds.
    pub clock: f64,
    /// Local iterations per worker.
    pub iterations: u64,
    /// Averaging rounds completed.
    pub rounds: u64,
    /// Cumulative simulated communication time.
    pub comm_time: f64,
    /// Cumulative simulated computation time.
    pub compute_time: f64,
    /// Cumulative per-worker payload bytes.
    pub comm_bytes: f64,
    /// Largest single-round payload so far.
    pub peak_payload_bytes: f64,
    /// Learning rate in effect.
    pub current_lr: f32,
    /// Codec in effect (may differ from the configured one mid-run under a
    /// co-adaptive schedule).
    pub codec: CodecSpec,
    /// Delay-stream RNG state.
    pub delay_rng: [u64; 4],
    /// Block-momentum `(buffer, prev_sync)` planes, if configured.
    pub block: Option<(Vec<f32>, Vec<f32>)>,
    /// Fault-injection state (RNG stream, outage table, staleness
    /// counters, cumulative stats), present iff faults are active.
    pub fault: Option<FaultCheckpoint>,
    /// Per-worker state, in worker-id order.
    pub workers: Vec<WorkerCheckpoint>,
}

/// A resumable snapshot of an interval-driven experiment run: the
/// cluster's full state plus the driver loop's own variables.
#[derive(Debug, Clone)]
pub struct RunCheckpoint {
    /// Trace points recorded so far (never empty: the `t = 0` point is
    /// recorded before the first round).
    pub points: Vec<TracePoint>,
    /// Interval index the scheduler was last consulted at.
    pub interval: usize,
    /// Loss last fed to the scheduler.
    pub last_loss: f64,
    /// Communication period currently in effect.
    pub tau: usize,
    /// Next trace-recording deadline (simulated seconds).
    pub next_record: f64,
    /// Loss at `t = 0` (the schedule's `F(x_0)`).
    pub initial_loss: f64,
    /// Learning rate at `t = 0`.
    pub initial_lr: f32,
    /// The communication scheduler's exported state.
    pub scheduler: SchedulerState,
    /// The cluster's full state.
    pub cluster: ClusterCheckpoint,
}

// ----------------------------------------------------------------------
// Trace wire format (shared with the bench run store)
// ----------------------------------------------------------------------

/// Appends one [`TracePoint`] (floats as raw bits, so decoded traces are
/// bit-identical to the originals).
pub fn write_trace_point(w: &mut ByteWriter, p: &TracePoint) {
    w.put_f64(p.clock);
    w.put_u64(p.iterations);
    w.put_f64(p.epoch);
    w.put_f32(p.train_loss);
    w.put_f64(p.test_accuracy);
    w.put_len(p.tau);
    w.put_f32(p.lr);
    w.put_f64(p.comm_bytes);
}

/// Reads one [`TracePoint`] written by [`write_trace_point`].
pub fn read_trace_point(r: &mut ByteReader<'_>) -> ReadResult<TracePoint> {
    Ok(TracePoint {
        clock: r.f64()?,
        iterations: r.u64()?,
        epoch: r.f64()?,
        train_loss: r.f32()?,
        test_accuracy: r.f64()?,
        tau: r.len()?,
        lr: r.f32()?,
        comm_bytes: r.f64()?,
    })
}

/// Every encoded trace point occupies at least this many bytes — the
/// pre-allocation guard for point counts.
const MIN_POINT_BYTES: usize = 56;

/// Appends a point list with a length prefix.
fn write_points(w: &mut ByteWriter, points: &[TracePoint]) {
    w.put_len(points.len());
    for p in points {
        write_trace_point(w, p);
    }
}

/// Reads a point list, rejecting counts the remaining bytes cannot hold.
fn read_points(r: &mut ByteReader<'_>) -> ReadResult<Vec<TracePoint>> {
    r.vec(MIN_POINT_BYTES, read_trace_point)
}

/// Appends a complete [`RunTrace`] — the frame the content-addressed run
/// store persists per scenario.
pub fn write_run_trace(w: &mut ByteWriter, t: &RunTrace) {
    w.put_str(&t.name);
    w.put_f64(t.peak_payload_bytes);
    w.put_u64(t.rounds);
    write_points(w, &t.points);
}

/// Reads a [`RunTrace`] written by [`write_run_trace`].
pub fn read_run_trace(r: &mut ByteReader<'_>) -> ReadResult<RunTrace> {
    Ok(RunTrace {
        name: r.str()?.to_string(),
        peak_payload_bytes: r.f64()?,
        rounds: r.u64()?,
        points: read_points(r)?,
    })
}

// ----------------------------------------------------------------------
// Checkpoint wire format
// ----------------------------------------------------------------------

fn write_rng_state(w: &mut ByteWriter, s: &[u64; 4]) {
    for &word in s {
        w.put_u64(word);
    }
}

fn read_rng_state(r: &mut ByteReader<'_>) -> ReadResult<[u64; 4]> {
    Ok([r.u64()?, r.u64()?, r.u64()?, r.u64()?])
}

fn write_worker(w: &mut ByteWriter, ck: &WorkerCheckpoint) {
    w.put_f32_slice(&ck.params);
    w.put_len(ck.momentum_buffers.len());
    for t in &ck.momentum_buffers {
        tensor::serde::write_tensor(w, t);
    }
    write_rng_state(w, &ck.rng);
    write_rng_state(w, &ck.comm_rng);
    w.put_u64(ck.steps_taken);
    w.put_len_slice(&ck.shuffle_order);
    w.put_len(ck.shuffle_cursor);
    w.put_len(ck.epochs_completed);
    ck.feedback.write_state(w);
    w.put_f32_slice(&ck.sync_reference);
    w.put_u8(u8::from(ck.track_reference));
}

fn read_worker(r: &mut ByteReader<'_>) -> ReadResult<WorkerCheckpoint> {
    let params = r.f32_vec()?;
    // A tensor frame is at least 16 bytes (rank + element count).
    let momentum_buffers = r.vec(16, tensor::serde::read_tensor)?;
    let rng = read_rng_state(r)?;
    let comm_rng = read_rng_state(r)?;
    let steps_taken = r.u64()?;
    let shuffle_order = r.len_vec()?;
    let shuffle_cursor = r.len()?;
    let epochs_completed = r.len()?;
    let feedback = ErrorFeedback::read_state(r)?;
    let sync_reference = r.f32_vec()?;
    let track_reference = match r.u8()? {
        0 => false,
        1 => true,
        flag => return Err(ReadError::BadLength(u64::from(flag))),
    };
    Ok(WorkerCheckpoint {
        params,
        momentum_buffers,
        rng,
        comm_rng,
        steps_taken,
        shuffle_order,
        shuffle_cursor,
        epochs_completed,
        feedback,
        sync_reference,
        track_reference,
    })
}

fn write_fault(w: &mut ByteWriter, ck: &FaultCheckpoint) {
    write_rng_state(w, &ck.rng);
    w.put_len(ck.down_until.len());
    for &round in &ck.down_until {
        w.put_u64(round);
    }
    w.put_len(ck.missed.len());
    for &count in &ck.missed {
        w.put_u64(count);
    }
    w.put_u64(ck.stats.crashes);
    w.put_u64(ck.stats.rejoins);
    w.put_u64(ck.stats.drops);
    w.put_u64(ck.stats.corruptions);
    w.put_u64(ck.stats.stragglers);
    w.put_u64(ck.stats.retransmits);
    w.put_u64(ck.stats.degraded_rounds);
}

fn read_fault(r: &mut ByteReader<'_>) -> ReadResult<FaultCheckpoint> {
    let rng = read_rng_state(r)?;
    let down_until = r.vec(8, ByteReader::u64)?;
    let missed = r.vec(8, ByteReader::u64)?;
    let stats = crate::FaultStats {
        crashes: r.u64()?,
        rejoins: r.u64()?,
        drops: r.u64()?,
        corruptions: r.u64()?,
        stragglers: r.u64()?,
        retransmits: r.u64()?,
        degraded_rounds: r.u64()?,
    };
    Ok(FaultCheckpoint {
        rng,
        down_until,
        missed,
        stats,
    })
}

fn write_cluster(w: &mut ByteWriter, ck: &ClusterCheckpoint) {
    w.put_f64(ck.clock);
    w.put_u64(ck.iterations);
    w.put_u64(ck.rounds);
    w.put_f64(ck.comm_time);
    w.put_f64(ck.compute_time);
    w.put_f64(ck.comm_bytes);
    w.put_f64(ck.peak_payload_bytes);
    w.put_f32(ck.current_lr);
    gradcomp::wire::write_codec(w, &ck.codec);
    write_rng_state(w, &ck.delay_rng);
    match &ck.block {
        Some((buffer, prev_sync)) => {
            w.put_u8(1);
            w.put_f32_slice(buffer);
            w.put_f32_slice(prev_sync);
        }
        None => w.put_u8(0),
    }
    match &ck.fault {
        Some(fault) => {
            w.put_u8(1);
            write_fault(w, fault);
        }
        None => w.put_u8(0),
    }
    w.put_len(ck.workers.len());
    for worker in &ck.workers {
        write_worker(w, worker);
    }
}

fn read_cluster(r: &mut ByteReader<'_>) -> ReadResult<ClusterCheckpoint> {
    let clock = r.f64()?;
    let iterations = r.u64()?;
    let rounds = r.u64()?;
    let comm_time = r.f64()?;
    let compute_time = r.f64()?;
    let comm_bytes = r.f64()?;
    let peak_payload_bytes = r.f64()?;
    let current_lr = r.f32()?;
    let codec = gradcomp::wire::read_codec(r)?;
    let delay_rng = read_rng_state(r)?;
    let block = match r.u8()? {
        0 => None,
        1 => {
            let buffer = r.f32_vec()?;
            let prev_sync = r.f32_vec()?;
            Some((buffer, prev_sync))
        }
        flag => return Err(ReadError::BadLength(u64::from(flag))),
    };
    let fault = match r.u8()? {
        0 => None,
        1 => Some(read_fault(r)?),
        flag => return Err(ReadError::BadLength(u64::from(flag))),
    };
    // A worker frame is at least ~100 bytes; 64 is a safe floor.
    let workers = r.vec(64, read_worker)?;
    Ok(ClusterCheckpoint {
        clock,
        iterations,
        rounds,
        comm_time,
        compute_time,
        comm_bytes,
        peak_payload_bytes,
        current_lr,
        codec,
        delay_rng,
        block,
        fault,
        workers,
    })
}

impl RunCheckpoint {
    /// Serializes the checkpoint into one self-validating frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = ByteWriter::new();
        write_points(&mut payload, &self.points);
        payload.put_len(self.interval);
        payload.put_f64(self.last_loss);
        payload.put_len(self.tau);
        payload.put_f64(self.next_record);
        payload.put_f64(self.initial_loss);
        payload.put_f32(self.initial_lr);
        self.scheduler.write_into(&mut payload);
        write_cluster(&mut payload, &self.cluster);
        FRAME.encode(|_| {}, payload.as_slice())
    }

    /// Decodes a frame produced by [`RunCheckpoint::to_bytes`].
    ///
    /// Every failure mode — wrong magic, unknown version, truncation,
    /// trailing garbage, checksum mismatch, malformed payload — returns a
    /// descriptive `Err`; this function never panics on any input.
    pub fn from_bytes(bytes: &[u8]) -> Result<RunCheckpoint, String> {
        let payload = FRAME.decode(bytes, |_| Ok(()))?;
        let mut p = ByteReader::new(payload);
        let ck = (|| -> ReadResult<RunCheckpoint> {
            Ok(RunCheckpoint {
                points: read_points(&mut p)?,
                interval: p.len()?,
                last_loss: p.f64()?,
                tau: p.len()?,
                next_record: p.f64()?,
                initial_loss: p.f64()?,
                initial_lr: p.f32()?,
                scheduler: SchedulerState::read_from(&mut p)?,
                cluster: read_cluster(&mut p)?,
            })
        })()
        .map_err(|e| format!("malformed checkpoint payload: {e}"))?;
        if !p.is_empty() {
            return Err(format!(
                "checkpoint payload has {} trailing bytes",
                p.remaining()
            ));
        }
        if ck.points.is_empty() {
            return Err("checkpoint records no trace points".to_string());
        }
        if ck.tau == 0 {
            return Err("checkpoint has a zero communication period".to_string());
        }
        Ok(ck)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_point(k: u64) -> TracePoint {
        TracePoint {
            clock: k as f64 * 1.5,
            iterations: k * 10,
            epoch: k as f64 * 0.25,
            train_loss: 1.0 / (k + 1) as f32,
            test_accuracy: 0.5 + 0.01 * k as f64,
            tau: (k + 1) as usize,
            lr: 0.1,
            comm_bytes: k as f64 * 780.0,
        }
    }

    fn toy_checkpoint() -> RunCheckpoint {
        RunCheckpoint {
            points: vec![toy_point(0), toy_point(1)],
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
                    stats: crate::FaultStats {
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

    #[test]
    fn trace_roundtrip_is_bit_exact() {
        let trace = RunTrace {
            name: "adacomm".to_string(),
            points: vec![toy_point(0), toy_point(1), toy_point(2)],
            peak_payload_bytes: 780.0,
            rounds: 17,
        };
        let mut w = ByteWriter::new();
        write_run_trace(&mut w, &trace);
        let bytes = w.into_vec();
        let back = read_run_trace(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_every_field() {
        let ck = toy_checkpoint();
        let back = RunCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(back.points, ck.points);
        assert_eq!(back.interval, ck.interval);
        assert_eq!(back.last_loss.to_bits(), ck.last_loss.to_bits());
        assert_eq!(back.tau, ck.tau);
        assert_eq!(back.scheduler, ck.scheduler);
        assert_eq!(back.cluster.delay_rng, ck.cluster.delay_rng);
        assert_eq!(back.cluster.codec, ck.cluster.codec);
        let (buf, prev) = back.cluster.block.as_ref().unwrap();
        assert_eq!(buf, &[0.5, -0.5]);
        assert_eq!(back.cluster.fault, ck.cluster.fault);
        // NaN travels bit-exactly through the raw-bit encoding.
        assert!(prev[1].is_nan());
        let w = &back.cluster.workers[0];
        assert_eq!(w.params[1].to_bits(), (-0.0f32).to_bits());
        assert_eq!(w.shuffle_order, vec![1, 0, 2]);
        assert!(w.track_reference);
        assert_eq!(w.momentum_buffers[0].as_slice(), &[0.25, 0.75]);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = toy_checkpoint().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                RunCheckpoint::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} of {} decoded",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_single_bit_flip_in_the_header_or_payload_is_rejected() {
        let bytes = toy_checkpoint().to_bytes();
        // Flipping any payload bit trips the CRC; flipping header bits
        // trips magic/version/length checks. (Exhaustive over bytes,
        // one bit each, to keep the test fast.)
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1;
            assert!(
                RunCheckpoint::from_bytes(&corrupt).is_err(),
                "bit flip at byte {i} decoded"
            );
        }
    }

    #[test]
    fn stale_version_is_rejected() {
        let mut bytes = toy_checkpoint().to_bytes();
        bytes[4] = bytes[4].wrapping_add(1);
        let err = RunCheckpoint::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("version"), "got: {err}");
    }

    #[test]
    fn wrong_magic_and_empty_input_are_rejected() {
        assert!(RunCheckpoint::from_bytes(b"").is_err());
        assert!(RunCheckpoint::from_bytes(b"RIFF").is_err());
        let mut bytes = toy_checkpoint().to_bytes();
        bytes[0] = b'X';
        let err = RunCheckpoint::from_bytes(&bytes).unwrap_err();
        assert!(err.contains("magic"), "got: {err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = toy_checkpoint().to_bytes();
        bytes.push(0);
        assert!(RunCheckpoint::from_bytes(&bytes).is_err());
    }
}
