//! Output verification. Every reply and every artefact the benchmark
//! times is checked here; a mismatch is a failed operation.

use crate::gen::SuiteQuery;
use rvhpc::kernels::KernelName;
use rvhpc::machines::machine;
use rvhpc::perfmodel::{estimate_averaged, TimeEstimate};
use rvhpc_serve::loadgen::{reply_bits, EstimateBits};
use rvhpc_trace::json::Json;

/// The exact bits an estimate reply must carry.
pub type Expected = (EstimateBits, bool);

pub fn expected(est: &TimeEstimate) -> Expected {
    (
        [
            est.seconds.to_bits(),
            est.compute_seconds.to_bits(),
            est.memory_seconds.to_bits(),
            est.overhead_seconds.to_bits(),
        ],
        est.vector_path,
    )
}

/// The `result` of an ok reply to request `id` of kind `op`, or `None`
/// for anything else (error reply, wrong id, malformed line).
fn ok_result(line: &str, id: u64, op: &str) -> Option<Json> {
    let doc = Json::parse(line.trim_end()).ok()?;
    let id_ok = doc.get("id").and_then(Json::as_f64) == Some(id as f64);
    let ok = doc.get("ok") == Some(&Json::Bool(true));
    let op_ok = doc.get("op").and_then(Json::as_str) == Some(op);
    if !(id_ok && ok && op_ok) {
        return None;
    }
    match doc {
        Json::Obj(pairs) => pairs.into_iter().find(|(k, _)| k == "result").map(|(_, v)| v),
        _ => None,
    }
}

/// Is `line` an ok estimate reply to request `id` carrying exactly `want`?
pub fn estimate_reply_ok(line: &str, id: u64, want: &Expected) -> bool {
    ok_result(line, id, "estimate").is_some_and(|r| {
        reply_bits(&r).as_ref() == Some(&want.0)
            && r.get("vector_path") == Some(&Json::Bool(want.1))
    })
}

/// FNV-1a over everything a suite reply asserts: machine, row count, and
/// each row's kernel, class, exact seconds bits and vector path.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The digest of an ok suite reply to request `id`.
pub fn suite_reply_digest(line: &str, id: u64) -> Option<u64> {
    let result = ok_result(line, id, "suite")?;
    let mut d = Digest::new();
    d.eat(result.get("machine")?.as_str()?.as_bytes());
    let rows = result.get("rows")?.as_arr()?;
    if result.get("n")?.as_f64()? != rows.len() as f64 {
        return None;
    }
    d.eat(&(rows.len() as u64).to_le_bytes());
    for row in rows {
        d.eat(row.get("kernel")?.as_str()?.as_bytes());
        d.eat(row.get("class")?.as_str()?.as_bytes());
        d.eat(&row.get("seconds")?.as_f64()?.to_bits().to_le_bytes());
        let Json::Bool(vector_path) = row.get("vector_path")? else { return None };
        d.eat(&[u8::from(*vector_path)]);
    }
    Some(d.0)
}

/// The digest a correct suite reply for `q` has, from serial uncached
/// estimates (which never touch the shared estimate cache).
pub fn suite_expected_digest(q: &SuiteQuery) -> u64 {
    let m = machine(q.machine);
    let cfg = q.run_config();
    let mut d = Digest::new();
    d.eat(q.machine.token().as_bytes());
    d.eat(&(KernelName::ALL.len() as u64).to_le_bytes());
    for k in KernelName::ALL {
        let est = estimate_averaged(&m, k, &cfg);
        d.eat(k.label().as_bytes());
        d.eat(k.class().label().as_bytes());
        d.eat(&est.seconds.to_bits().to_le_bytes());
        d.eat(&[u8::from(est.vector_path)]);
    }
    d.0
}

/// Are the rendered artefacts of a pass byte-identical to the reference?
pub fn artefacts_match(reference: &[String], got: &[String]) -> bool {
    reference.len() == got.len()
        && reference.iter().zip(got).all(|(a, b)| a.as_bytes() == b.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::suite_space;
    use rvhpc::machines::MachineId;
    use rvhpc::perfmodel::{Precision, RunConfig};
    use rvhpc_serve::protocol::{estimate_json, ok_response};

    fn sample_estimate() -> TimeEstimate {
        let cfg = RunConfig::sg2042_best(Precision::Fp32, 4);
        estimate_averaged(&machine(MachineId::Sg2042), KernelName::STREAM_TRIAD, &cfg)
    }

    #[test]
    fn a_correct_estimate_reply_passes() {
        let est = sample_estimate();
        let line = ok_response(&Json::Num(9.0), "estimate", estimate_json(&est));
        assert!(estimate_reply_ok(&line, 9, &expected(&est)));
        assert!(!estimate_reply_ok(&line, 10, &expected(&est)), "wrong id");
    }

    #[test]
    fn every_field_of_an_estimate_reply_is_compared_bit_for_bit() {
        let est = sample_estimate();
        let want = expected(&est);
        for field in 0..4 {
            let mut bad = est;
            let slot = match field {
                0 => &mut bad.seconds,
                1 => &mut bad.compute_seconds,
                2 => &mut bad.memory_seconds,
                _ => &mut bad.overhead_seconds,
            };
            *slot = f64::from_bits(slot.to_bits() ^ 1);
            let line = ok_response(&Json::Num(1.0), "estimate", estimate_json(&bad));
            assert!(!estimate_reply_ok(&line, 1, &want), "field {field}");
        }
        let mut flipped = est;
        flipped.vector_path = !flipped.vector_path;
        let line = ok_response(&Json::Num(1.0), "estimate", estimate_json(&flipped));
        assert!(!estimate_reply_ok(&line, 1, &want));
    }

    fn suite_reply(q: &SuiteQuery, flip_row: Option<usize>) -> String {
        let m = machine(q.machine);
        let rows = KernelName::ALL
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let est = estimate_averaged(&m, k, &q.run_config());
                let flip = u64::from(flip_row == Some(i));
                Json::obj(vec![
                    ("kernel", Json::str(k.label())),
                    ("class", Json::str(k.class().label())),
                    ("seconds", Json::Num(f64::from_bits(est.seconds.to_bits() ^ flip))),
                    ("vector_path", Json::Bool(est.vector_path)),
                ])
            })
            .collect::<Vec<_>>();
        let result = Json::obj(vec![
            ("machine", Json::str(q.machine.token())),
            ("n", Json::Num(rows.len() as f64)),
            ("rows", Json::Arr(rows)),
        ]);
        ok_response(&Json::Num(5.0), "suite", result)
    }

    #[test]
    fn suite_digests_match_only_bit_identical_replies() {
        let q = suite_space()[1234];
        let want = suite_expected_digest(&q);
        assert_eq!(suite_reply_digest(&suite_reply(&q, None), 5), Some(want));
        let bad = suite_reply_digest(&suite_reply(&q, Some(17)), 5);
        assert!(bad.is_some() && bad != Some(want), "a flipped row bit must change the digest");
    }

    #[test]
    fn a_corrupted_artefact_byte_is_counted_as_failed() {
        let reference = vec!["| fig | 1.25 |".to_string(), "| table | 3 |".to_string()];
        assert!(artefacts_match(&reference, &reference.clone()));
        let mut corrupted = reference.clone();
        let mut bytes = corrupted[1].clone().into_bytes();
        bytes[4] ^= 0x01;
        corrupted[1] = String::from_utf8(bytes).unwrap();
        assert!(!artefacts_match(&reference, &corrupted));
        assert!(!artefacts_match(&reference, &reference[..1]), "a missing artefact fails too");
    }
}
