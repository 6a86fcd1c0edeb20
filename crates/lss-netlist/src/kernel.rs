//! Kernel-lowerable behavior metadata.
//!
//! The static scheduler (`lss-sim`'s `exec` module) devirtualizes
//! hot corelib behaviors into direct port-slot reads and writes. A behavior
//! opts in by describing itself as a [`KernelClass`]: which of its ports
//! play which structural role, plus the resolved parameters the kernel
//! needs. The description is pure metadata — port numbers are the
//! behavior's own port indices, exactly as handed to its factory — and the
//! engine resolves them against the flat slot arena at build time. A
//! behavior without a `KernelClass` (or one the engine declines to lower,
//! e.g. because it sits inside a combinational cycle or carries userpoints)
//! simply stays on the dyn `Component` path.
//!
//! This lives in `lss-netlist` rather than `lss-sim` so the metadata sits
//! next to the rest of the structural IR and stays usable by tooling that
//! never links the engine.
//!
//! The module also owns the one instruction-record type ([`Instr`], with
//! its `to_datum`/`from_datum` codec) that the corelib's CPU behaviors and
//! the engine's issue/FU kernels share, and [`InstrRecord`], the decoded
//! fields kept next to the record they arrived in. Fetch encodes each
//! instruction once; every later hop forwards the record it received, so
//! both sides put the same record on a port.

use std::sync::{Arc, OnceLock};

use lss_types::Datum;

use crate::protocol::SrcSpan;

/// The fields of an instruction record, in declaration order: the corelib's
/// `struct { pc:int; op:int; dst:int; src1:int; src2:int; lat:int; tgt:int;
/// taken:int; }`.
pub const INSTR_FIELDS: [&str; 8] = ["pc", "op", "dst", "src1", "src2", "lat", "tgt", "taken"];

/// [`INSTR_FIELDS`] interned once per process, so an encoded record shares
/// its field names instead of allocating eight strings.
fn instr_names() -> &'static [Arc<str>; 8] {
    static NAMES: OnceLock<[Arc<str>; 8]> = OnceLock::new();
    NAMES.get_or_init(|| INSTR_FIELDS.map(Arc::from))
}

/// A decoded instruction record: the [`INSTR_FIELDS`] of the datum an
/// instruction travels in. The corelib's CPU behaviors and the engine's
/// issue/FU kernels both decode and encode through this one type, so both
/// sides put the same record on a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Program counter.
    pub pc: i64,
    /// Operation class code.
    pub op: i64,
    /// Destination register (-1 = none).
    pub dst: i64,
    /// First source register (-1 = none).
    pub src1: i64,
    /// Second source register (-1 = none).
    pub src2: i64,
    /// Execution latency in cycles.
    pub lat: i64,
    /// Branch target / memory address.
    pub tgt: i64,
    /// Branch outcome (1 = taken); carried with the instruction because the
    /// trace is synthetic.
    pub taken: i64,
}

impl Instr {
    /// Encodes the instruction as a shared record datum in the canonical
    /// [`INSTR_FIELDS`] layout: one allocation, and cloning the result
    /// allocates nothing.
    ///
    /// Encoding happens once per fetched instruction: every later hop keeps
    /// the record it received in an [`InstrRecord`] and forwards a clone.
    pub fn to_datum(&self) -> Datum {
        let values = [
            self.pc, self.op, self.dst, self.src1, self.src2, self.lat, self.tgt, self.taken,
        ];
        let names = instr_names();
        let fields: [(Arc<str>, Datum); 8] =
            std::array::from_fn(|i| (names[i].clone(), Datum::Int(values[i])));
        Datum::Struct(Arc::from(fields))
    }

    /// Decodes an instruction record by field name in a single pass over
    /// its fields. Field order does not matter and other fields are
    /// ignored; when a name appears twice the first occurrence wins, as
    /// with [`Datum::field`]. `None` if a field is missing, if its first
    /// occurrence is not an `int`, or if `datum` is not a record.
    pub fn from_datum(datum: &Datum) -> Option<Instr> {
        let Datum::Struct(fields) = datum else {
            return None;
        };
        let mut v = [0; 8];
        let mut seen = 0u8;
        for (name, value) in fields.iter() {
            let Some(i) = field_index(name) else {
                continue;
            };
            if seen & 1 << i == 0 {
                seen |= 1 << i;
                v[i] = value.as_int()?;
            }
        }
        if seen != u8::MAX {
            return None;
        }
        let [pc, op, dst, src1, src2, lat, tgt, taken] = v;
        Some(Instr {
            pc,
            op,
            dst,
            src1,
            src2,
            lat,
            tgt,
            taken,
        })
    }
}

/// The position of `name` in [`INSTR_FIELDS`].
fn field_index(name: &str) -> Option<usize> {
    Some(match name {
        "pc" => 0,
        "op" => 1,
        "dst" => 2,
        "src1" => 3,
        "src2" => 4,
        "lat" => 5,
        "tgt" => 6,
        "taken" => 7,
        _ => return None,
    })
}

/// An instruction a component holds: its decoded fields next to the record
/// it arrived in. Forwarding the instruction sends a clone of `datum`, a
/// reference-count bump, so the record keeps the layout it arrived with
/// and is never re-encoded.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrRecord {
    /// The decoded fields.
    pub instr: Instr,
    /// The record as received.
    pub datum: Datum,
}

impl InstrRecord {
    /// Decodes `datum` with [`Instr::from_datum`] and keeps a reference to
    /// it, or `None` if it is not an instruction record.
    pub fn decode(datum: &Datum) -> Option<InstrRecord> {
        Some(InstrRecord {
            instr: Instr::from_datum(datum)?,
            datum: datum.clone(),
        })
    }
}

/// The arithmetic operation of an ALU kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelAluOp {
    /// Wrapping addition (int) / IEEE addition (float).
    Add,
    /// Wrapping subtraction / IEEE subtraction.
    Sub,
    /// Wrapping multiplication / IEEE multiplication.
    Mul,
}

/// A behavior's self-description for kernel lowering.
///
/// Every variant mirrors one corelib behavior's `eval`/`end_of_timestep`
/// contract exactly; the kernel-equivalence suite in the workspace root
/// pins the two implementations against each other (and against the naive
/// reference simulator) cycle by cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelClass {
    /// `corelib/source.tar`: every `out` lane carries `start + seed +
    /// cycle` for `int` ports, or the fixed default value `konst` for any
    /// other inferred type.
    Source {
        /// `out` port index.
        out: usize,
        /// Counter base for the `int` overload.
        start: i64,
        /// `Some(default)` for non-`int` types; `None` selects the counter.
        konst: Option<Datum>,
    },
    /// `corelib/sink.tar`: counts arrivals on `in` into the `count`
    /// runtime variable at end of timestep.
    Sink {
        /// `in` port index.
        inp: usize,
    },
    /// `corelib/delay.tar`: `out` carries the state, which takes `in[0]`'s
    /// value at end of timestep.
    Delay {
        /// `in` port index.
        inp: usize,
        /// `out` port index.
        out: usize,
        /// Initial state.
        init: Datum,
    },
    /// `corelib/latch.tar`: each `out` lane carries what the matching `in`
    /// lane held at the end of the previous cycle.
    Latch {
        /// `in` port index.
        inp: usize,
        /// `out` port index.
        out: usize,
    },
    /// `corelib/tee.tar`: combinational fan-out of `in[0]` to every `out`
    /// lane.
    Tee {
        /// `in` port index.
        inp: usize,
        /// `out` port index.
        out: usize,
    },
    /// `corelib/queue.tar`: the elastic FIFO with the credit discipline.
    Queue {
        /// `in` port index.
        inp: usize,
        /// `out` port index.
        out: usize,
        /// `credit` port index.
        credit: usize,
        /// `credit_in` port index.
        credit_in: usize,
        /// Buffer capacity.
        depth: usize,
        /// Protocol group name for overflow diagnostics.
        group: String,
        /// Annotation span for overflow diagnostics.
        span: Option<SrcSpan>,
    },
    /// `corelib/issue.tar`: the out-of-order (or `in_order`) issue window
    /// with RAW/WAW scoreboarding and per-lane FU class constraints.
    Issue {
        /// `in` port index.
        inp: usize,
        /// `credit` port index.
        credit: usize,
        /// `out` port index.
        out: usize,
        /// `fu_credit` port index.
        fu_credit: usize,
        /// `complete` port index.
        complete: usize,
        /// Window capacity.
        window_size: usize,
        /// Maximum issues per cycle.
        issue_width: usize,
        /// Strict program-order issue when set.
        in_order: bool,
        /// Per-out-lane accepted op-class codes (0 = any).
        classes: Vec<i64>,
        /// Protocol group name for overflow diagnostics.
        group: String,
        /// Annotation span for overflow diagnostics.
        span: Option<SrcSpan>,
    },
    /// `corelib/fu.tar`: the pipelined functional unit with an
    /// address-generation stage, optional cache-port and CDB-grant
    /// interfaces. Instructions travel as shared `Datum::Struct` records
    /// that fetch built once with [`Instr::to_datum`]: a port hop or a
    /// buffered re-send clones a reference, never the fields. The kernel
    /// decodes each arrival once into an [`InstrRecord`], reads the
    /// `op`/`lat`/`tgt` fields directly and drives `done` with the record
    /// it received.
    Fu {
        /// `in` port index.
        inp: usize,
        /// `credit` port index.
        credit: usize,
        /// `done` port index.
        done: usize,
        /// `grant_in` port index.
        grant_in: usize,
        /// `mem_req` port index.
        mem_req: usize,
        /// `mem_resp` port index.
        mem_resp: usize,
        /// Accept a new instruction every cycle when set.
        pipelined: bool,
        /// In-flight instruction capacity.
        max_inflight: usize,
        /// Protocol group name for overflow diagnostics.
        group: String,
        /// Annotation span for overflow diagnostics.
        span: Option<SrcSpan>,
    },
    /// `corelib/alu.tar`: per-lane arithmetic on `a`/`b` into `res`.
    Alu {
        /// `a` port index.
        a: usize,
        /// `b` port index.
        b: usize,
        /// `res` port index.
        res: usize,
        /// Operation.
        op: KernelAluOp,
        /// True when the overload resolved to the float family member.
        float: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instr_records_round_trip_and_share_field_names() {
        let instr = Instr {
            pc: 0x1000,
            op: 4,
            dst: 3,
            src1: 1,
            src2: -1,
            lat: 2,
            tgt: 64,
            taken: 0,
        };
        let a = instr.to_datum();
        assert_eq!(Instr::from_datum(&a), Some(instr));
        assert_eq!(
            a.to_string(),
            "{pc: 4096, op: 4, dst: 3, src1: 1, src2: -1, lat: 2, tgt: 64, taken: 0}"
        );
        let b = Instr { pc: 0, ..instr }.to_datum();
        let (Datum::Struct(fa), Datum::Struct(fb)) = (&a, &b) else {
            unreachable!()
        };
        assert!(fa
            .iter()
            .zip(fb.iter())
            .all(|(x, y)| Arc::ptr_eq(&x.0, &y.0)));
    }

    /// The decoder before it became one pass: one [`Datum::field`] lookup
    /// per name.
    fn by_field_lookup(datum: &Datum) -> Option<Instr> {
        let mut v = [0; 8];
        for (slot, name) in v.iter_mut().zip(INSTR_FIELDS) {
            *slot = datum.field(name)?.as_int()?;
        }
        let [pc, op, dst, src1, src2, lat, tgt, taken] = v;
        Some(Instr {
            pc,
            op,
            dst,
            src1,
            src2,
            lat,
            tgt,
            taken,
        })
    }

    #[test]
    fn one_pass_decode_matches_per_field_lookup() {
        type Fields = Vec<(&'static str, Datum)>;
        let canonical: Fields = INSTR_FIELDS
            .iter()
            .zip(1..)
            .map(|(n, v)| (*n, Datum::Int(v)))
            .collect();
        let with = |edit: &dyn Fn(&mut Fields)| {
            let mut fields = canonical.clone();
            edit(&mut fields);
            Datum::record(fields)
        };
        let cases: Vec<(&str, Datum, bool)> = vec![
            ("canonical", with(&|_| {}), true),
            ("reordered", with(&|f| f.reverse()), true),
            ("rotated", with(&|f| f.rotate_left(3)), true),
            (
                "extra fields",
                with(&|f| {
                    f.insert(2, ("note", Datum::Str("x".into())));
                    f.push(("latency", Datum::Bool(true)));
                }),
                true,
            ),
            (
                "duplicate int, first wins",
                with(&|f| f.push(("lat", Datum::Int(99)))),
                true,
            ),
            (
                "duplicate int before the canonical one",
                with(&|f| f.insert(0, ("dst", Datum::Int(-7)))),
                true,
            ),
            (
                "duplicate with a non-int first occurrence",
                with(&|f| f.insert(0, ("tgt", Datum::Bool(false)))),
                false,
            ),
            (
                "duplicate with a non-int later occurrence",
                with(&|f| f.push(("tgt", Datum::Bool(false)))),
                true,
            ),
            (
                "missing field",
                with(&|f| f.retain(|(n, _)| *n != "taken")),
                false,
            ),
            (
                "empty record",
                Datum::record(Vec::<(&str, Datum)>::new()),
                false,
            ),
            (
                "non-int field",
                with(&|f| f[0].1 = Datum::Float(1.0)),
                false,
            ),
            ("not a record", Datum::Int(3), false),
            ("array", Datum::Array(vec![Datum::Int(1); 8]), false),
        ];
        for (name, datum, decodes) in cases {
            let expected = by_field_lookup(&datum);
            assert_eq!(expected.is_some(), decodes, "{name}: reference");
            assert_eq!(Instr::from_datum(&datum), expected, "{name}: {datum}");
        }
        for (i, name) in INSTR_FIELDS.iter().enumerate() {
            assert_eq!(field_index(name), Some(i));
        }
    }

    #[test]
    fn a_record_keeps_the_datum_it_was_decoded_from() {
        let d = Datum::record(INSTR_FIELDS.iter().rev().map(|n| (*n, Datum::Int(2))));
        let held = InstrRecord::decode(&d).unwrap();
        assert_eq!(held.instr.lat, 2);
        let (Datum::Struct(a), Datum::Struct(b)) = (&d, &held.datum) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(a, b));
        assert_eq!(InstrRecord::decode(&Datum::Int(0)), None);
    }
}
