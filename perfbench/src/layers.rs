//! The traced run: per-layer counters read from each call's
//! [`RunOutput`], host-time costs of single layers timed from outside
//! through their public functions, and the accounting that closes them
//! against the untraced `wall_s`.
//!
//! A layer's host time inside a cluster run cannot be timed from outside
//! without instrumenting the program, so it is *computed*: the work the
//! run's counters say the layer did, times the per-unit cost timed here
//! on inputs shaped like that work. `host.other_s` is what those computed
//! costs and the serial application arithmetic leave unexplained.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ccl_core::{NodeMetrics, RunOutput, SimTime, TraceKind, MSG_KINDS};
use ftlog::frame;
use hlrc::{Msg, WriteNotice, HEADER_BYTES};
use pagemem::{Decode, Encode, IntervalId, PageDiff, PageFrame, SharedBytes, Twin, VClock};
use simnet::{make_endpoints, DiskModel, Envelope, SimDisk};

use crate::{median, metric, Call, Metric, Runner};

type Counters = BTreeMap<&'static str, f64>;

fn bump(c: &mut Counters, key: &'static str, v: f64) {
    *c.entry(key).or_default() += v;
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Inputs for the layer timings, taken from the first traced pass.
#[derive(Debug, Default)]
struct Shape {
    /// Framed bytes of every log append, in order.
    appends: Vec<usize>,
    /// Append sizes grouped by the stable flush that persisted them.
    flushes: Vec<Vec<usize>>,
    /// Cluster traffic per wire tag: `(msgs, bytes)`.
    traffic: Vec<(u64, u64)>,
    disk: Option<DiskModel>,
    nodes: usize,
    page_size: usize,
}

/// Read one call's counters into `c` (and, for the first traced pass,
/// the shape of its work into `shape`).
fn observe(
    scale: obsv::Scale,
    call: &Call,
    out: &RunOutput<u64>,
    c: &mut Counters,
    metrics: &mut NodeMetrics,
    shape: Option<&mut Shape>,
) {
    let t = out.total_stats();
    let m = out.total_metrics();
    metrics.merge(&m);
    bump(c, "exec_ns", out.exec_time().as_nanos() as f64);
    bump(
        c,
        "recovery_ns",
        out.recovery_time().map_or(0, |d| d.as_nanos()) as f64,
    );
    bump(c, "log_bytes", t.log_bytes as f64);
    bump(c, "log_flushes", t.log_flushes as f64);
    bump(c, "disk_ns", t.disk_time.as_nanos() as f64);
    bump(c, "hidden_ns", t.disk_time_overlapped.as_nanos() as f64);
    bump(c, "msgs", t.msgs_sent as f64);
    bump(c, "stalls", t.sched_stalls as f64);
    bump(c, "parks", m.park_ns.count() as f64);
    bump(c, "park_ns", m.park_ns.sum() as f64);
    bump(c, "diffs", t.diffs_created as f64);
    bump(c, "diff_bytes", t.diff_bytes as f64);
    bump(c, "twins", t.twins_created as f64);
    bump(c, "read_faults", t.read_faults as f64);
    bump(c, "write_faults", t.write_faults as f64);
    bump(c, "page_fetches", t.page_fetches as f64);
    bump(c, "pf_issued", t.prefetch_issued as f64);
    bump(c, "pf_hits", t.prefetch_hits as f64);
    bump(c, "pf_wasted", t.prefetch_wasted as f64);
    bump(c, "lock_acquires", t.lock_acquires as f64);
    bump(c, "barriers", t.barriers as f64);
    bump(c, "compute_ns", t.compute_time.as_nanos() as f64);

    let mut appends = 0u64;
    let mut decoded = 0u64;
    for n in &out.nodes {
        let crashed = n.crashed_at.is_some();
        let mut before_crash = crashed;
        for ev in &n.trace {
            match ev.kind {
                TraceKind::LogAppend { .. } => appends += 1,
                TraceKind::LogFlush { bytes, .. } if before_crash => decoded += bytes,
                TraceKind::Crash => before_crash = false,
                _ => {}
            }
        }
    }
    bump(c, "appends", appends as f64);
    bump(c, "decoded_bytes", decoded as f64);

    let t0 = Instant::now();
    let blame = obsv::analyze(out);
    bump(c, "analyze_s", t0.elapsed().as_secs_f64());
    let waits = blame.cp_wait_by_class();
    let wait = |k: &str| waits.get(k).copied().unwrap_or(0) as f64;
    bump(c, "cp_compute_ns", blame.cp_compute_ns() as f64);
    bump(c, "cp_recovery_ns", blame.cp_recovery_ns() as f64);
    bump(c, "cp_page_ns", wait("page"));
    bump(c, "cp_lock_ns", wait("lock"));
    bump(c, "cp_barrier_ns", wait("barrier"));
    bump(c, "cp_flush_ns", wait("flush"));
    let log = |k: &str| blame.log_by_class.get(k).copied().unwrap_or(0) as f64;
    bump(c, "log_page", log("page"));
    bump(c, "log_lock", log("lock"));
    bump(c, "log_barrier", log("barrier"));
    bump(c, "log_meta", log("meta"));

    if let Some(s) = shape {
        let spec = scale.spec(call.app, call.protocol);
        s.disk = Some(spec.cost.disk);
        s.nodes = spec.nodes;
        s.page_size = spec.page_size;
        if s.traffic.is_empty() {
            s.traffic = vec![(0, 0); MSG_KINDS];
        }
        for k in 0..MSG_KINDS {
            s.traffic[k].0 += t.msgs_by_kind[k];
            s.traffic[k].1 += t.bytes_by_kind[k];
        }
        for n in &out.nodes {
            let mut group = Vec::new();
            for ev in &n.trace {
                match ev.kind {
                    TraceKind::LogAppend { bytes, .. } => {
                        s.appends.push(bytes as usize);
                        group.push(bytes as usize);
                    }
                    TraceKind::LogFlush { .. } if !group.is_empty() => {
                        s.flushes.push(std::mem::take(&mut group));
                    }
                    _ => {}
                }
            }
        }
    }
}

/// The traced half of a traced run: traced passes until `budget` (from
/// `t0`) is spent, then the layer timings and the closing accounting.
/// `untraced` holds the untraced passes' `wall_s`, their median net
/// elapsed seconds per pass, and the share of their raw call wall time
/// that was VM steal (%).
pub(crate) fn traced(
    runner: &mut Runner<'_>,
    untraced: (f64, f64, f64),
    t0: Instant,
    budget: Duration,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let scale = runner.scale;
    let mut passes: Vec<Counters> = Vec::new();
    let mut shape = Shape::default();
    loop {
        let mut c = Counters::new();
        let mut hist = NodeMetrics::default();
        let first = passes.is_empty();
        let times = runner.pass(|call, out| {
            observe(
                scale,
                call,
                out,
                &mut c,
                &mut hist,
                first.then_some(&mut shape),
            )
        });
        let analyze_s = c.get("analyze_s").copied().unwrap_or(0.0);
        c.insert("traced_elapsed_s", times.elapsed_s - analyze_s);
        c.insert("fetch_p50_ns", hist.fetch_latency_ns.quantile(0.5) as f64);
        c.insert("lock_wait_p50_ns", hist.lock_wait_ns.quantile(0.5) as f64);
        passes.push(c);
        if t0.elapsed() >= budget {
            break;
        }
    }
    let keys: Vec<&'static str> = passes[0].keys().copied().collect();
    let c: Counters = keys
        .into_iter()
        .map(|k| {
            let xs: Vec<f64> = passes
                .iter()
                .map(|p| p.get(k).copied().unwrap_or(0.0))
                .collect();
            (k, median(&xs))
        })
        .collect();
    let g = |k: &str| c.get(k).copied().unwrap_or(0.0);

    let fr = time_frame(&shape);
    let disk_ns = time_disk(&shape);
    let router_ns = time_router();
    let codec = time_codec(&shape);
    let diff = time_diff(&shape, ratio(g("diff_bytes"), g("diffs")));

    // Computed layer host time: counted work x timed unit cost.
    let log_bytes = g("log_bytes");
    let decoded = g("decoded_bytes");
    let payload = |framed: f64| (framed - g("appends") * frame::FRAME_HEADER_BYTES as f64).max(0.0);
    let frame_s = ratio(log_bytes, fr.encode_mb_s * 1e6) + ratio(decoded, fr.decode_mb_s * 1e6);
    let disk_s = g("appends") * disk_ns / 1e9;
    let router_s = g("msgs") * router_ns / 1e9;
    let codec_s = (payload(log_bytes) * codec.encode_ns_per_byte
        + payload(decoded) * codec.decode_ns_per_byte)
        / 1e9;
    let diff_s = (g("diffs") * (diff.create_ns + diff.apply_ns) + g("twins") * diff.twin_ns) / 1e9;
    let serial_s = runner.serial_ref_s();
    let wall = untraced.0;
    let other_s = wall - frame_s - disk_s - router_s - codec_s - diff_s - serial_s;
    notes.push(format!(
        "layer accounting (computed, s): frame {frame_s:.4} disk {disk_s:.4} router {router_s:.4} \
         codec {codec_s:.4} diff {diff_s:.4} serial app {serial_s:.4} other {other_s:.4} of wall {wall:.4}"
    ));
    for (k, rt) in &codec.per_kind {
        notes.push(format!(
            "codec roundtrip {:<22} {rt:>10.1} ns",
            ccl_core::kind_label(*k)
        ));
    }

    let exec = g("exec_ns");
    let mb = 1e6;
    vec![
        metric("ftlog.frame.crc_mb_per_s", fr.crc_mb_s, "MB/s"),
        metric("ftlog.frame.encode_mb_per_s", fr.encode_mb_s, "MB/s"),
        metric("ftlog.frame.decode_mb_per_s", fr.decode_mb_s, "MB/s"),
        metric("ftlog.frame.host_s", frame_s, "s"),
        metric("ftlog.records", g("appends"), "count"),
        metric("ftlog.flushes", g("log_flushes"), "count"),
        metric(
            "ftlog.mean_flush_kb",
            ratio(log_bytes, g("log_flushes")) / 1e3,
            "KB",
        ),
        metric("ftlog.log_mb.page", g("log_page") / mb, "MB"),
        metric("ftlog.log_mb.lock", g("log_lock") / mb, "MB"),
        metric("ftlog.log_mb.barrier", g("log_barrier") / mb, "MB"),
        metric("ftlog.log_mb.meta", g("log_meta") / mb, "MB"),
        metric("ftlog.recovery_s", g("recovery_ns") / 1e9, "sim_s"),
        metric("simnet.disk.flush_ns_per_record", disk_ns, "ns"),
        metric("simnet.disk.host_s", disk_s, "s"),
        metric("simnet.disk.busy_s", g("disk_ns") / 1e9, "sim_s"),
        metric("simnet.disk.hidden_s", g("hidden_ns") / 1e9, "sim_s"),
        metric("simnet.router.msgs", g("msgs"), "count"),
        metric("simnet.router.sched_stalls", g("stalls"), "count"),
        metric("simnet.router.parks", g("parks"), "count"),
        metric("simnet.router.park_s", g("park_ns") / 1e9, "s"),
        metric("simnet.router.ns_per_msg", router_ns, "ns"),
        metric("simnet.router.host_s", router_s, "s"),
        metric("pagemem.codec.roundtrip_ns", codec.roundtrip_ns, "ns"),
        metric("pagemem.codec.host_s", codec_s, "s"),
        metric("pagemem.diff.created", g("diffs"), "count"),
        metric("pagemem.diff.mb", g("diff_bytes") / mb, "MB"),
        metric("pagemem.diff.twins", g("twins"), "count"),
        metric("pagemem.diff.create_ns", diff.create_ns, "ns"),
        metric("pagemem.diff.apply_ns", diff.apply_ns, "ns"),
        metric("pagemem.diff.host_s", diff_s, "s"),
        metric("hlrc.read_faults", g("read_faults"), "count"),
        metric("hlrc.write_faults", g("write_faults"), "count"),
        metric("hlrc.page_fetches", g("page_fetches"), "count"),
        metric("hlrc.fetch_p50_us", g("fetch_p50_ns") / 1e3, "sim_us"),
        metric("hlrc.prefetch_issued", g("pf_issued"), "count"),
        metric("hlrc.prefetch_hits", g("pf_hits"), "count"),
        metric("hlrc.prefetch_wasted", g("pf_wasted"), "count"),
        metric(
            "hlrc.prefetch_hit_ratio",
            ratio(g("pf_hits"), g("pf_issued")),
            "share",
        ),
        metric("hlrc.sync.lock_acquires", g("lock_acquires"), "count"),
        metric("hlrc.sync.barriers", g("barriers"), "count"),
        metric(
            "hlrc.sync.lock_wait_p50_us",
            g("lock_wait_p50_ns") / 1e3,
            "sim_us",
        ),
        metric(
            "blame.compute_share",
            ratio(g("cp_compute_ns"), exec),
            "share",
        ),
        metric(
            "blame.page_wait_share",
            ratio(g("cp_page_ns"), exec),
            "share",
        ),
        metric(
            "blame.lock_wait_share",
            ratio(g("cp_lock_ns"), exec),
            "share",
        ),
        metric(
            "blame.barrier_wait_share",
            ratio(g("cp_barrier_ns"), exec),
            "share",
        ),
        metric(
            "blame.flush_wait_share",
            ratio(g("cp_flush_ns"), exec),
            "share",
        ),
        metric(
            "blame.recovery_share",
            ratio(g("cp_recovery_ns"), exec),
            "share",
        ),
        metric("obsv.blame.analyze_s", g("analyze_s"), "s"),
        metric("apps.serial_ref_s", serial_s, "s"),
        metric("apps.compute_s", g("compute_ns") / 1e9, "sim_s"),
        metric("host.other_s", other_s, "s"),
        metric("host.other_pct", 100.0 * ratio(other_s, wall), "%"),
        metric("host.steal_pct", untraced.2, "%"),
        metric(
            "trace.overhead_pct",
            100.0 * ratio(g("traced_elapsed_s") - untraced.1, untraced.1),
            "%",
        ),
    ]
}

/// Median seconds of `reps` timed calls of `body`, after one warm-up.
fn timed<F: FnMut()>(reps: usize, mut body: F) -> f64 {
    body();
    let xs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            body();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&xs)
}

/// Median nanoseconds per call of `op`, batched so one timed batch
/// takes at least a millisecond.
fn ns_per_op<F: FnMut()>(mut op: F) -> f64 {
    let mut n = 1usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..n {
            op();
        }
        if t0.elapsed() >= Duration::from_millis(1) || n >= 1 << 24 {
            break;
        }
        n *= 2;
    }
    timed(5, || {
        for _ in 0..n {
            op();
        }
    }) * 1e9
        / n as f64
}

/// Log payloads shaped like the workload's appends (at most ~4 MB).
fn payloads(shape: &Shape) -> Vec<Vec<u8>> {
    let sizes: Vec<usize> = if shape.appends.is_empty() {
        vec![4096 + frame::FRAME_HEADER_BYTES; 64]
    } else {
        shape.appends.clone()
    };
    let mut out = Vec::new();
    let mut total = 0usize;
    for (i, &s) in sizes.iter().cycle().enumerate() {
        let len = s.saturating_sub(frame::FRAME_HEADER_BYTES).max(1);
        out.push((0..len).map(|b| (b * 31 + i) as u8).collect());
        total += len;
        if total >= 4 << 20 || i + 1 >= sizes.len().max(256) {
            break;
        }
    }
    out
}

struct FrameRates {
    crc_mb_s: f64,
    encode_mb_s: f64,
    decode_mb_s: f64,
}

fn time_frame(shape: &Shape) -> FrameRates {
    let payloads = payloads(shape);
    let payload_bytes: usize = payloads.iter().map(Vec::len).sum();
    let framed: Vec<Vec<u8>> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| frame::frame_record(1, i as u32, p))
        .collect();
    let framed_bytes: usize = framed.iter().map(Vec::len).sum();
    let crc = timed(5, || {
        for p in &payloads {
            black_box(frame::crc32(black_box(p)));
        }
    });
    let enc = timed(5, || {
        for (i, p) in payloads.iter().enumerate() {
            black_box(frame::frame_record(1, i as u32, black_box(p)));
        }
    });
    let dec = timed(5, || {
        for f in &framed {
            black_box(frame::decode_frame(black_box(f)).expect("frame just encoded"));
        }
    });
    FrameRates {
        crc_mb_s: ratio(payload_bytes as f64, crc * 1e6),
        encode_mb_s: ratio(framed_bytes as f64, enc * 1e6),
        decode_mb_s: ratio(framed_bytes as f64, dec * 1e6),
    }
}

/// Host ns per record of `SimDisk::flush_records`, replaying the
/// workload's flush batches (record sizes included) on a fresh disk.
fn time_disk(shape: &Shape) -> f64 {
    let model = shape.disk.unwrap_or(ccl_core::CostModel::default().disk);
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut records = 0usize;
    let src: Vec<Vec<usize>> = if shape.flushes.is_empty() {
        vec![vec![4096; 16]]
    } else {
        shape.flushes.clone()
    };
    for g in src.iter().cycle() {
        records += g.len();
        groups.push(g.clone());
        if records >= 4096 {
            break;
        }
    }
    let reps = 5;
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..=reps {
        let batches: Vec<Vec<Vec<u8>>> = groups
            .iter()
            .map(|g| g.iter().map(|&s| vec![0u8; s]).collect())
            .collect();
        let mut disk = SimDisk::new(model);
        let t0 = Instant::now();
        for b in batches {
            black_box(disk.flush_records("bench", b));
        }
        xs.push(t0.elapsed().as_secs_f64());
        drop(black_box(disk));
    }
    median(&xs[1..]) * 1e9 / records as f64
}

/// Host ns per message through the router: one thread sends batches of
/// 64 envelopes around a 2-endpoint ring and drains them.
fn time_router() -> f64 {
    let eps = make_endpoints::<Msg>(2);
    let mut seq = 0u64;
    let batch = 64u64;
    let per_round = ns_per_op(|| {
        for (src, dst) in [(0usize, 1usize), (1, 0)] {
            for _ in 0..batch {
                seq += 1;
                eps[src]
                    .send(Envelope {
                        src,
                        dst,
                        sent_at: SimTime(seq),
                        arrive_at: SimTime(seq + 1),
                        seq,
                        payload: Msg::PageRequest { page: seq as u32 },
                    })
                    .expect("ring endpoint is live");
            }
            for _ in 0..batch {
                black_box(eps[dst].try_recv().expect("unbounded lookahead delivers"));
            }
        }
    });
    per_round / (2 * batch) as f64
}

struct CodecCost {
    /// Message-weighted mean encode+decode ns over the traffic mix.
    roundtrip_ns: f64,
    /// Encode ns per encoded byte over the traffic mix.
    encode_ns_per_byte: f64,
    /// Decode ns per encoded byte over the traffic mix.
    decode_ns_per_byte: f64,
    /// `(wire tag, roundtrip ns)` per kind present.
    per_kind: Vec<(usize, f64)>,
}

/// Time encode and decode of one message per traffic kind, sized to the
/// kind's mean wire size in this workload.
fn time_codec(shape: &Shape) -> CodecCost {
    let nodes = shape.nodes.max(2);
    let page = shape.page_size.max(64);
    let mut per_kind = Vec::new();
    let (mut msgs, mut rt, mut bytes, mut enc_ns, mut dec_ns) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (k, &(n, b)) in shape.traffic.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let m = sample_msg(k, (b / n) as usize, nodes, page);
        let buf = m.encode_to_sized_vec();
        let e = ns_per_op(|| {
            black_box(black_box(&m).encode_to_sized_vec());
        });
        let d = ns_per_op(|| {
            black_box(Msg::decode_from_slice(black_box(&buf)).expect("message just encoded"));
        });
        per_kind.push((k, e + d));
        let w = n as f64;
        msgs += w;
        rt += w * (e + d);
        bytes += w * buf.len() as f64;
        enc_ns += w * e;
        dec_ns += w * d;
    }
    CodecCost {
        roundtrip_ns: ratio(rt, msgs),
        encode_ns_per_byte: ratio(enc_ns, bytes),
        decode_ns_per_byte: ratio(dec_ns, bytes),
        per_kind,
    }
}

/// A page pair whose diff has about `target` payload bytes: contiguous
/// 64-byte blocks rewritten, the shape application writes take.
fn page_pair(page: usize, target: f64, seed: u64) -> (Twin, PageFrame) {
    let mut s = seed;
    let mut next = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        s >> 11
    };
    let mut base = PageFrame::zeroed(page);
    for off in (0..page).step_by(8) {
        base.write_u64(off, next());
    }
    let mut cur = base.clone();
    let blocks = page.div_ceil(64);
    let dirty = ((target / 64.0).round() as usize).clamp(1, blocks);
    for b in 0..blocks {
        if (next() % blocks as u64) < dirty as u64 {
            for off in (b * 64..((b + 1) * 64).min(page)).step_by(8) {
                cur.write_u64(off, next());
            }
        }
    }
    (Twin::of(&base), cur)
}

struct DiffCost {
    create_ns: f64,
    apply_ns: f64,
    twin_ns: f64,
}

fn time_diff(shape: &Shape, mean_diff_bytes: f64) -> DiffCost {
    let page = shape.page_size.max(64);
    let target = if mean_diff_bytes > 0.0 {
        mean_diff_bytes
    } else {
        page as f64 / 4.0
    };
    let pairs: Vec<(Twin, PageFrame)> = (0..8)
        .map(|i| page_pair(page, target, 0x9E37 + i))
        .collect();
    let diffs: Vec<PageDiff> = pairs
        .iter()
        .map(|(t, c)| PageDiff::create(0, t, c))
        .collect();
    let mut target_frame = pairs[0].0.frame().clone();
    let per = pairs.len() as f64;
    let create_ns = ns_per_op(|| {
        for (t, c) in &pairs {
            black_box(PageDiff::create(0, black_box(t), black_box(c)));
        }
    }) / per;
    let apply_ns = ns_per_op(|| {
        for d in &diffs {
            d.apply(black_box(&mut target_frame));
        }
    }) / per;
    let twin_ns = ns_per_op(|| {
        black_box(Twin::of(black_box(&pairs[0].1)));
    });
    DiffCost {
        create_ns,
        apply_ns,
        twin_ns,
    }
}

/// One message of wire tag `kind` whose wire size is about `wire` bytes.
fn sample_msg(kind: usize, wire: usize, nodes: usize, page: usize) -> Msg {
    let body = wire.saturating_sub(HEADER_BYTES);
    let mut vc = VClock::new(nodes);
    for i in 0..nodes as u32 {
        vc.set(i, 3 * i + 1);
    }
    let vc_bytes = vc.encoded_size();
    let iv = IntervalId { node: 1, seq: 7 };
    let data =
        |len: usize| -> SharedBytes { (0..len).map(|b| b as u8).collect::<Vec<u8>>().into() };
    let notices = |room: usize| -> Vec<WriteNotice> {
        (0..(room / 12).max(1) as u32)
            .map(|p| WriteNotice {
                page: p,
                interval: IntervalId {
                    node: p % nodes as u32,
                    seq: p,
                },
            })
            .collect()
    };
    let diffs = |room: usize| -> Vec<PageDiff> {
        let (t, c) = page_pair(page, (page / 4) as f64, 0xD1B5);
        let d = PageDiff::create(3, &t, &c);
        let n = (room / d.encoded_size().max(1)).max(1);
        (0..n).map(|_| d.clone()).collect()
    };
    let copies = |room: usize| (room / (page + vc_bytes + 8)).max(1);
    match kind {
        0 => Msg::PageRequest { page: 3 },
        1 => Msg::PageReply {
            page: 3,
            data: data(body.saturating_sub(vc_bytes + 8).max(1)),
            version: vc,
        },
        2 => Msg::DiffFlush {
            writer: iv,
            diffs: diffs(body),
        },
        3 => Msg::DiffAck { writer: iv },
        4 => Msg::LockRequest { lock: 1, vc },
        5 => Msg::LockGrant {
            lock: 1,
            vc: Arc::new(vc),
            notices: notices(body.saturating_sub(vc_bytes)),
        },
        6 => Msg::LockRelease {
            lock: 1,
            vc,
            notices: notices(body.saturating_sub(vc_bytes)),
        },
        7 => Msg::BarrierArrive {
            epoch: 2,
            vc,
            notices: notices(body.saturating_sub(vc_bytes)),
            proposals: Vec::new(),
        },
        8 => Msg::BarrierRelease {
            epoch: 2,
            notices: notices(body.saturating_sub(vc_bytes)).into(),
            vc: Arc::new(vc),
            migrations: Vec::new().into(),
        },
        9 => Msg::RecoveryPageRequest {
            page: 3,
            required: vc,
        },
        10 => Msg::RecoveryPageReply {
            page: 3,
            advanced: true,
            data: data(body.saturating_sub(vc_bytes + 9).max(1)),
            version: vc,
        },
        11 => Msg::LoggedDiffRequest {
            page: 3,
            seqs: (0..(body / 4).max(1) as u32).collect(),
        },
        12 => Msg::LoggedDiffReply {
            page: 3,
            diffs: diffs(body).into_iter().map(|d| (iv, d)).collect(),
        },
        13 => Msg::ReleaseHistoryRequest,
        14 => {
            let per = vc_bytes + 12 * 8 + 12;
            Msg::ReleaseHistoryReply {
                releases: (0..(body / per).max(1) as u32)
                    .map(|e| (e, vc.clone(), notices(96), Vec::new()))
                    .collect(),
            }
        }
        15 => Msg::PageRequestBatch {
            page: 3,
            extras: (4..4 + (body / 4).max(1) as u32).collect(),
        },
        16 => Msg::PageReplyBatch {
            after: 3,
            pages: (0..copies(body) as u32)
                .map(|p| (p, data(page), vc.clone()))
                .collect(),
        },
        _ => Msg::HomeMigrate {
            page: 3,
            data: data(page),
            version: vc,
        },
    }
}
