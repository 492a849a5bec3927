//! The MapReduce implementations: P3C+-MR (Section 5) and P3C+-MR-Light
//! (Section 6).
//!
//! Every data-proportional step of P3C+ is expressed as a job on the
//! [`p3c_mapreduce::Engine`], following the paper's summation-form recipe
//!
//! ```text
//! s = Σᵢ s(xᵢ) = Σ_{splits} (reduce) Σ_{xᵢ ∈ split} (map) s(xᵢ)
//! ```
//!
//! * [`histogram`] — the histogram-building job (Section 5.1),
//! * [`coregen`] — the RSSC-based candidate-proving job, the parallel
//!   candidate-generation job, and the counter through which
//!   [`crate::cores`]' level loop runs them, multi-level candidate
//!   collection included (Section 5.3),
//! * [`em`] — the runner through which [`crate::em`]'s one EM driver
//!   runs each data pass as a job: both initialization rounds and two
//!   jobs per iteration (Section 5.4),
//! * [`outlier`] — the runner through which [`crate::outlier`]'s one
//!   outlier driver runs each pass as a job: the MVB and MCD statistics
//!   jobs and the OD job (Section 5.5),
//! * [`inspect`] — the attribute-inspection job, whose per-cluster
//!   summaries carry both the inspection histograms and the min/max of
//!   interval tightening (Sections 5.6 and 5.7 in one pass),
//! * [`pipeline`] — the [`pipeline::P3cPlusMr`] and
//!   [`pipeline::P3cPlusMrLight`] drivers chaining the jobs.

pub mod coregen;
pub mod em;
pub mod histogram;
pub mod inspect;
pub mod outlier;
pub mod pipeline;

pub use pipeline::{P3cPlusMr, P3cPlusMrLight};

use crate::em::EmPartial;
use crate::outlier::Ball;
use crate::types::{Interval, Signature};
use p3c_dataset::bytes::{self, DecodeError, Reader};
use p3c_linalg::CovarianceAccumulator;
use p3c_mapreduce::distrib::Wire;
use p3c_mapreduce::Weighable;

/// A signature as a shuffle message (candidate generation output).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SigMsg(pub Signature);

impl Weighable for SigMsg {
    fn weight(&self) -> usize {
        // 4-byte length prefix + 4 packed usizes per interval.
        4 + self.0.len() * 32
    }
}

/// A covariance accumulator as a shuffle message (EM/OD statistics jobs).
#[derive(Debug, Clone)]
pub struct AccMsg(pub CovarianceAccumulator);

impl Weighable for AccMsg {
    fn weight(&self) -> usize {
        acc_weight(&self.0)
    }
}

/// Bytes of an encoded accumulator: linear sum + scatter matrix +
/// (weight, weight², count).
fn acc_weight(acc: &CovarianceAccumulator) -> usize {
    let d = acc.dim();
    8 * (d + d * d) + 24
}

impl Wire for SigMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        bytes::put_len32(buf, self.0.len());
        for iv in self.0.intervals() {
            iv.encode_into(buf);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Signature::from_decoded(r.seq32(Interval::ENCODED_BYTES, Interval::decode)?).map(SigMsg)
    }
}

impl Wire for AccMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_acc(buf, &self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        read_acc(r).map(AccMsg)
    }
}

/// A chunk ball as a shuffle message: the center, the radius, then the
/// member count.
impl Weighable for Ball {
    fn weight(&self) -> usize {
        4 + 8 * self.center.len() + 16
    }
}

impl Wire for Ball {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.center.encode(buf);
        self.radius.encode(buf);
        self.members.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let center = Vec::<f64>::decode(r)?;
        let radius = r.f64()?;
        let members = usize::decode(r)?;
        Ok(Ball {
            center,
            radius,
            members,
        })
    }
}

/// An EM block partial as a shuffle message: the accumulators as
/// [`AccMsg`]s after a `u32` count, then the log-likelihood.
impl Weighable for EmPartial {
    fn weight(&self) -> usize {
        4 + self.accs.iter().map(acc_weight).sum::<usize>() + 8
    }
}

impl Wire for EmPartial {
    fn encode(&self, buf: &mut Vec<u8>) {
        bytes::put_len32(buf, self.accs.len());
        for acc in &self.accs {
            put_acc(buf, acc);
        }
        self.loglik.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // An accumulator is at least its dim, two u32 lengths and the
        // three scalars: 40 bytes.
        let accs = r.seq32(40, read_acc)?;
        let loglik = r.f64()?;
        Ok(EmPartial { accs, loglik })
    }
}

fn put_acc(buf: &mut Vec<u8>, acc: &CovarianceAccumulator) {
    let (dim, linear, scatter, weight, weight_sq, count) = acc.to_parts();
    dim.encode(buf);
    for seq in [linear, scatter] {
        bytes::put_len32(buf, seq.len());
        bytes::put_f64_run(buf, seq);
    }
    weight.encode(buf);
    weight_sq.encode(buf);
    count.encode(buf);
}

fn read_acc(r: &mut Reader<'_>) -> Result<CovarianceAccumulator, DecodeError> {
    let dim = r.usize()?;
    let linear = Vec::<f64>::decode(r)?;
    let scatter = Vec::<f64>::decode(r)?;
    let weight = r.f64()?;
    let weight_sq = r.f64()?;
    let count = r.u64()?;
    if linear.len() != dim || Some(scatter.len()) != dim.checked_mul(dim) {
        return Err(DecodeError::Malformed("accumulator shape mismatch"));
    }
    Ok(CovarianceAccumulator::from_parts(
        dim, linear, scatter, weight, weight_sq, count,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Interval;
    use p3c_mapreduce::distrib::{decode_from_slice, encode_to_vec};

    #[test]
    fn message_weights() {
        let sig = Signature::new(vec![Interval::new(0, 0, 1, 10), Interval::new(1, 2, 3, 10)]);
        assert_eq!(SigMsg(sig).weight(), 4 + 64);
        let acc = CovarianceAccumulator::new(3);
        assert_eq!(AccMsg(acc).weight(), 8 * 12 + 24);
    }

    #[test]
    fn sig_msg_wire_roundtrip() {
        let sig = SigMsg(Signature::new(vec![
            Interval::new(0, 0, 1, 10),
            Interval::new(3, 2, 7, 12),
        ]));
        let back: SigMsg = decode_from_slice(&encode_to_vec(&sig)).unwrap();
        assert_eq!(back, sig);
    }

    #[test]
    fn acc_msg_wire_roundtrip_bit_identical() {
        let mut acc = CovarianceAccumulator::new(2);
        acc.push(&[1.5, -2.25], 0.3);
        acc.push(&[0.1, 4.0], 1.7);
        let back: AccMsg = decode_from_slice(&encode_to_vec(&AccMsg(acc.clone()))).unwrap();
        let (d0, l0, s0, w0, q0, c0) = acc.to_parts();
        let (d1, l1, s1, w1, q1, c1) = back.0.to_parts();
        assert_eq!(d0, d1);
        assert_eq!(c0, c1);
        // f64 state must survive the wire bit-for-bit.
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(l0), bits(l1));
        assert_eq!(bits(s0), bits(s1));
        assert_eq!(w0.to_bits(), w1.to_bits());
        assert_eq!(q0.to_bits(), q1.to_bits());
    }

    #[test]
    fn em_partial_wire_roundtrip_bit_identical() {
        let mut acc = CovarianceAccumulator::new(2);
        acc.push(&[0.25, -1.5], 0.75);
        let partial = EmPartial {
            accs: vec![acc, CovarianceAccumulator::new(2)],
            loglik: -123.456,
        };
        let bytes = encode_to_vec(&partial);
        let back: EmPartial = decode_from_slice(&bytes).unwrap();
        assert_eq!(back.loglik.to_bits(), partial.loglik.to_bits());
        for (a, b) in back.accs.iter().zip(&partial.accs) {
            assert_eq!(
                encode_to_vec(&AccMsg(a.clone())),
                encode_to_vec(&AccMsg(b.clone()))
            );
        }
        assert_eq!(back.accs.len(), 2);
        assert!(decode_from_slice::<EmPartial>(&bytes[..bytes.len() - 1]).is_err());
    }

    /// Pinned wire bytes of the two message types (DESIGN.md "Byte
    /// formats"): a reducer in another process decodes exactly these.
    #[test]
    fn shuffle_messages_encode_to_golden_bytes() {
        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }
        let sig = SigMsg(Signature::new(vec![
            Interval::new(3, 2, 7, 12),
            Interval::new(0, 0, 1, 10),
        ]));
        assert_eq!(hex(&encode_to_vec(&sig)), SIG_GOLDEN);
        let acc = AccMsg(CovarianceAccumulator::from_parts(
            2,
            vec![1.5, -0.0],
            vec![0.25, 1e-300, f64::INFINITY, 3.0],
            2.0,
            2.5,
            7,
        ));
        assert_eq!(hex(&encode_to_vec(&acc)), ACC_GOLDEN);
    }

    const SIG_GOLDEN: &str = "020000000000000000000000000000000000000001000000000000000a000000000000000300000000000000020000000000000007000000000000000c00000000000000";
    const ACC_GOLDEN: &str = "020000000000000002000000000000000000f83f000000000000008004000000000000000000d03f59f3f8c21f6ea501000000000000f07f0000000000000840000000000000004000000000000004400700000000000000";
}
