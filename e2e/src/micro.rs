//! Small timed loops over single public functions of a layer, run in
//! the traced pass of the workload that exercises the layer.

use crate::measure::{median, Report};
use p3c_dataset::colseg;
use p3c_mapreduce::distrib::wire::{read_frame, write_frame, OP_STORE};
use p3c_mapreduce::distrib::{decode_from_slice, encode_to_vec};
use std::hint::black_box;
use std::time::Instant;

/// Payload size of the frame and codec loops.
const PAYLOAD_BYTES: usize = 1 << 20;
/// Repetitions per loop; the median is reported.
const REPS: usize = 15;

/// Median seconds of `REPS` calls of `f`.
fn median_seconds(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn mb_per_s(bytes: usize, seconds: f64) -> f64 {
    bytes as f64 / 1e6 / seconds.max(1e-12)
}

/// `mapreduce.distrib.*` throughputs: framing 1 MiB payloads with
/// `write_frame`/`read_frame` and encoding 1 MiB of `f64`s with
/// `encode_to_vec` — the per-byte costs of the process backend's wire.
pub fn distrib(report: &mut Report) {
    let payload: Vec<u8> = (0..PAYLOAD_BYTES).map(|i| (i * 31) as u8).collect();
    let mut frame = Vec::with_capacity(PAYLOAD_BYTES + 16);
    let write_s = median_seconds(|| {
        frame.clear();
        write_frame(&mut frame, OP_STORE, black_box(&payload)).expect("write to a Vec");
    });
    let mut ok = true;
    let read_s = median_seconds(|| {
        let (op, body) = read_frame(&mut black_box(frame.as_slice())).expect("frame just written");
        ok &= op == OP_STORE && body.len() == PAYLOAD_BYTES;
    });
    let values: Vec<f64> = (0..PAYLOAD_BYTES / 8).map(|i| i as f64 * 0.25).collect();
    let mut encoded = Vec::new();
    let encode_s = median_seconds(|| encoded = encode_to_vec(black_box(&values)));
    ok &= decode_from_slice::<Vec<f64>>(&encoded).is_ok_and(|back| back == values);
    report.check(ok, || {
        "wire frame or codec round trip changed the payload".to_string()
    });
    report.layer(
        "mapreduce.distrib.frame_write_mb_s",
        mb_per_s(PAYLOAD_BYTES, write_s),
    );
    report.layer(
        "mapreduce.distrib.frame_read_mb_s",
        mb_per_s(PAYLOAD_BYTES, read_s),
    );
    report.layer(
        "mapreduce.distrib.encode_mb_s",
        mb_per_s(PAYLOAD_BYTES, encode_s),
    );
}

/// `dataset.colseg.*`: the spill codec on one column of the stream's
/// initial block — what every spilled block column goes through.
pub fn colseg(report: &mut Report, column: &[f64]) {
    let raw_bytes = column.len() * 8;
    let mut encoded = Vec::new();
    let encode_s = median_seconds(|| encoded = colseg::encode_column(black_box(column)));
    let mut decoded = Vec::new();
    let decode_s = median_seconds(|| decoded = colseg::decode_column(black_box(&encoded)));
    report.check(decoded == column, || {
        "colseg column round trip changed the values".to_string()
    });
    report.layer("dataset.colseg.encode_mb_s", mb_per_s(raw_bytes, encode_s));
    report.layer("dataset.colseg.decode_mb_s", mb_per_s(raw_bytes, decode_s));
    report.layer(
        "dataset.colseg.bytes_per_raw_byte",
        encoded.len() as f64 / raw_bytes as f64,
    );
}
