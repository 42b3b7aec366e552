//! The two shipped technology libraries.
//!
//! The paper's experiments used "an ECL gate-array library … by the
//! technology mapper to create technology-specific designs" (§7) from
//! Applied Micro Circuits Corporation. That library is proprietary, so we
//! ship a synthetic ECL gate-array library with realistic *relative*
//! characteristics — NOR/OR-centric, with low/standard/high power macro
//! variants (strategy 2 needs them) and per-pin delay skews (strategy 1
//! needs them) — plus a CMOS standard-cell library for contrast
//! (NAND/AND-centric, single power level, rich complex-cell set).

use crate::library::{cell, TechLibrary};
use milo_logic::TruthTable;
use milo_netlist::{CellFunction, GateFn, PowerLevel};

/// Relative speed/power scaling for the three ECL power grades.
const GRADES: [(PowerLevel, &str, f64, f64); 3] = [
    (PowerLevel::Low, "_L", 1.4, 0.5),
    (PowerLevel::Standard, "", 1.0, 1.0),
    (PowerLevel::High, "_H", 0.7, 1.6),
];

#[allow(clippy::too_many_arguments)]
fn push_graded(
    lib: &mut TechLibrary,
    family: &str,
    base_name: &str,
    function: CellFunction,
    area: f64,
    delay: f64,
    load_delay: f64,
    power: f64,
    max_fanout: u32,
    skew_pins: bool,
) {
    for (level, suffix, dscale, pscale) in GRADES {
        let name = format!("{base_name}{suffix}");
        let mut c = cell(
            &name,
            family,
            function.clone(),
            area,
            delay * dscale,
            load_delay * dscale,
            power * pscale,
            max_fanout,
            level,
        );
        if skew_pins {
            c.pin_delay = skewed_pin_delays(&function, delay * dscale);
        }
        lib.add(c);
    }
}

/// Input-pin delay skew: the first input is the fastest, later inputs are
/// progressively slower (Fig. 9a: "the 3-input AND gate has a different
/// delay from each input to the output").
fn skewed_pin_delays(function: &CellFunction, base: f64) -> Vec<f64> {
    let n = match function {
        CellFunction::Gate(_, n) => *n as usize,
        _ => return Vec::new(),
    };
    if n < 2 {
        return Vec::new();
    }
    (0..n).map(|i| base * (0.8 + 0.15 * i as f64)).collect()
}

fn add_storage_cells(lib: &mut TechLibrary, family: &str, area: f64, delay: f64, power: f64) {
    for set in [false, true] {
        for reset in [false, true] {
            for enable in [false, true] {
                let mut name = "DFF".to_owned();
                if set {
                    name.push('S');
                }
                if reset {
                    name.push('R');
                }
                if enable {
                    name.push('E');
                }
                let extra = f64::from(u8::from(set) + u8::from(reset) + u8::from(enable));
                lib.add(cell(
                    &name,
                    family,
                    CellFunction::Dff { set, reset, enable },
                    area + 0.2 * extra,
                    delay,
                    0.12,
                    power + 0.1 * extra,
                    8,
                    PowerLevel::Standard,
                ));
            }
        }
    }
    for set in [false, true] {
        for reset in [false, true] {
            let mut name = "LATCH".to_owned();
            if set {
                name.push('S');
            }
            if reset {
                name.push('R');
            }
            let extra = f64::from(u8::from(set) + u8::from(reset));
            lib.add(cell(
                &name,
                family,
                CellFunction::Latch { set, reset },
                area * 0.7 + 0.2 * extra,
                delay * 0.8,
                0.12,
                power * 0.8 + 0.1 * extra,
                8,
                PowerLevel::Standard,
            ));
        }
    }
}

fn add_msi_cells(lib: &mut TechLibrary, family: &str) {
    let f = family;
    // Multiplexors.
    lib.add(cell(
        "MUX2TO1",
        f,
        CellFunction::Mux { selects: 1 },
        1.6,
        0.9,
        0.1,
        0.9,
        6,
        PowerLevel::Standard,
    ));
    lib.add(cell(
        "MUX4TO1",
        f,
        CellFunction::Mux { selects: 2 },
        2.8,
        1.2,
        0.1,
        1.4,
        6,
        PowerLevel::Standard,
    ));
    // Decoders.
    lib.add(cell(
        "DEC1TO2",
        f,
        CellFunction::Decoder { inputs: 1 },
        1.2,
        0.8,
        0.1,
        0.8,
        6,
        PowerLevel::Standard,
    ));
    lib.add(cell(
        "DEC2TO4",
        f,
        CellFunction::Decoder { inputs: 2 },
        2.4,
        1.1,
        0.1,
        1.4,
        6,
        PowerLevel::Standard,
    ));
    // Adders: the CLA variant trades area/power for speed — the swap the
    // microarchitecture critic makes in Fig. 16.
    lib.add(cell(
        "ADD1",
        f,
        CellFunction::Adder {
            bits: 1,
            cla: false,
        },
        2.2,
        1.3,
        0.12,
        1.2,
        6,
        PowerLevel::Standard,
    ));
    lib.add(cell(
        "ADD4",
        f,
        CellFunction::Adder {
            bits: 4,
            cla: false,
        },
        7.0,
        3.4,
        0.12,
        3.6,
        6,
        PowerLevel::Standard,
    ));
    lib.add(cell(
        "ADD4CLA",
        f,
        CellFunction::Adder { bits: 4, cla: true },
        10.5,
        1.9,
        0.12,
        5.4,
        6,
        PowerLevel::Standard,
    ));
    // Comparators.
    lib.add(cell(
        "CMP2",
        f,
        CellFunction::Comparator { bits: 2 },
        3.0,
        1.5,
        0.12,
        1.6,
        6,
        PowerLevel::Standard,
    ));
    lib.add(cell(
        "CMP4",
        f,
        CellFunction::Comparator { bits: 4 },
        5.2,
        2.2,
        0.12,
        2.8,
        6,
        PowerLevel::Standard,
    ));
    // Counters.
    lib.add(cell(
        "CTR2",
        f,
        CellFunction::Counter { bits: 2 },
        5.0,
        1.6,
        0.12,
        2.6,
        6,
        PowerLevel::Standard,
    ));
    lib.add(cell(
        "CTR4",
        f,
        CellFunction::Counter { bits: 4 },
        9.0,
        2.0,
        0.12,
        4.6,
        6,
        PowerLevel::Standard,
    ));
    // Merged mux+FF macros (Fig. 18's hierarchy optimization target).
    lib.add(cell(
        "MXFF2",
        f,
        CellFunction::MuxDff { selects: 1 },
        2.4,
        1.4,
        0.12,
        1.6,
        8,
        PowerLevel::Standard,
    ));
    lib.add(cell(
        "MXFF4",
        f,
        CellFunction::MuxDff { selects: 2 },
        3.6,
        1.7,
        0.12,
        2.2,
        8,
        PowerLevel::Standard,
    ));
    // Constants.
    lib.add(cell(
        "TIE1",
        f,
        CellFunction::Const(true),
        0.1,
        0.0,
        0.0,
        0.05,
        32,
        PowerLevel::Standard,
    ));
    lib.add(cell(
        "TIE0",
        f,
        CellFunction::Const(false),
        0.1,
        0.0,
        0.0,
        0.05,
        32,
        PowerLevel::Standard,
    ));
}

/// AOI21: Y = !((A0 & A1) | A2).
pub(crate) fn aoi21() -> TruthTable {
    TruthTable::from_fn(3, |r| {
        let a = r & 1 == 1;
        let b = r >> 1 & 1 == 1;
        let c = r >> 2 & 1 == 1;
        !((a && b) || c)
    })
}

/// OAI21: Y = !((A0 | A1) & A2).
pub(crate) fn oai21() -> TruthTable {
    TruthTable::from_fn(3, |r| {
        let a = r & 1 == 1;
        let b = r >> 1 & 1 == 1;
        let c = r >> 2 & 1 == 1;
        !((a || b) && c)
    })
}

/// AOI22: Y = !((A0 & A1) | (A2 & A3)).
pub(crate) fn aoi22() -> TruthTable {
    TruthTable::from_fn(4, |r| {
        let a = r & 1 == 1;
        let b = r >> 1 & 1 == 1;
        let c = r >> 2 & 1 == 1;
        let d = r >> 3 & 1 == 1;
        !((a && b) || (c && d))
    })
}

/// The synthetic ECL gate-array library (family `ecl-ga`).
///
/// NOR/OR are the native, fastest gates; AND/NAND are slightly slower
/// composed macros. Basic gates come in three power grades and carry
/// per-pin delay skews. XNOR2 is deliberately absent: the mapper replaces
/// it with XOR2 + INV, exercising the "set of components" path of §6.2.
pub fn ecl_library() -> TechLibrary {
    // The library is immutable and cell storage is Arc-shared, so build
    // it once per process and hand out cheap clones.
    static ECL: std::sync::OnceLock<TechLibrary> = std::sync::OnceLock::new();
    ECL.get_or_init(build_ecl_library).clone()
}

fn build_ecl_library() -> TechLibrary {
    let mut lib = TechLibrary::new("ecl-ga");
    let f = "ecl-ga";
    push_graded(
        &mut lib,
        f,
        "INV",
        CellFunction::Gate(GateFn::Inv, 1),
        0.5,
        0.30,
        0.08,
        0.4,
        8,
        false,
    );
    push_graded(
        &mut lib,
        f,
        "BUF",
        CellFunction::Gate(GateFn::Buf, 1),
        0.5,
        0.30,
        0.06,
        0.4,
        12,
        false,
    );
    for n in 2..=4u8 {
        let nf = f64::from(n);
        push_graded(
            &mut lib,
            f,
            &format!("OR{n}"),
            CellFunction::Gate(GateFn::Or, n),
            0.8 + 0.2 * nf,
            0.45 + 0.05 * nf,
            0.08,
            0.5 + 0.1 * nf,
            6,
            true,
        );
        push_graded(
            &mut lib,
            f,
            &format!("NOR{n}"),
            CellFunction::Gate(GateFn::Nor, n),
            0.8 + 0.2 * nf,
            0.40 + 0.05 * nf,
            0.08,
            0.5 + 0.1 * nf,
            6,
            true,
        );
        push_graded(
            &mut lib,
            f,
            &format!("AND{n}"),
            CellFunction::Gate(GateFn::And, n),
            1.0 + 0.25 * nf,
            0.60 + 0.07 * nf,
            0.09,
            0.6 + 0.12 * nf,
            6,
            true,
        );
        push_graded(
            &mut lib,
            f,
            &format!("NAND{n}"),
            CellFunction::Gate(GateFn::Nand, n),
            1.0 + 0.25 * nf,
            0.55 + 0.07 * nf,
            0.09,
            0.6 + 0.12 * nf,
            6,
            true,
        );
    }
    push_graded(
        &mut lib,
        f,
        "XOR2",
        CellFunction::Gate(GateFn::Xor, 2),
        1.8,
        1.0,
        0.1,
        1.0,
        5,
        true,
    );
    // No XNOR2 — exercised as XOR2 + INV.
    lib.add(cell(
        "AOI21",
        f,
        CellFunction::Table(aoi21()),
        1.6,
        0.75,
        0.09,
        0.9,
        6,
        PowerLevel::Standard,
    ));
    lib.add(cell(
        "OAI21",
        f,
        CellFunction::Table(oai21()),
        1.6,
        0.70,
        0.09,
        0.9,
        6,
        PowerLevel::Standard,
    ));
    lib.add(cell(
        "AOI22",
        f,
        CellFunction::Table(aoi22()),
        2.0,
        0.85,
        0.09,
        1.1,
        6,
        PowerLevel::Standard,
    ));
    add_storage_cells(&mut lib, f, 2.0, 1.1, 1.2);
    add_msi_cells(&mut lib, f);
    lib
}

/// The synthetic CMOS standard-cell library (family `cmos-sc`).
///
/// NAND/NOR are native; there is a single power grade (strategy 2 does not
/// apply to CMOS, per §4.1.2), and complex AOI cells are cheap.
pub fn cmos_library() -> TechLibrary {
    static CMOS: std::sync::OnceLock<TechLibrary> = std::sync::OnceLock::new();
    CMOS.get_or_init(build_cmos_library).clone()
}

fn build_cmos_library() -> TechLibrary {
    let mut lib = TechLibrary::new("cmos-sc");
    let f = "cmos-sc";
    let std = PowerLevel::Standard;
    lib.add(cell(
        "INV",
        f,
        CellFunction::Gate(GateFn::Inv, 1),
        0.5,
        0.20,
        0.10,
        0.10,
        10,
        std,
    ));
    lib.add(cell(
        "BUF",
        f,
        CellFunction::Gate(GateFn::Buf, 1),
        0.7,
        0.35,
        0.07,
        0.15,
        16,
        std,
    ));
    for n in 2..=4u8 {
        let nf = f64::from(n);
        let mut nand = cell(
            &format!("NAND{n}"),
            f,
            CellFunction::Gate(GateFn::Nand, n),
            0.7 + 0.2 * nf,
            0.30 + 0.08 * nf,
            0.1,
            0.08 + 0.03 * nf,
            8,
            std,
        );
        nand.pin_delay = skewed_pin_delays(&nand.function.clone(), nand.delay);
        lib.add(nand);
        let mut nor = cell(
            &format!("NOR{n}"),
            f,
            CellFunction::Gate(GateFn::Nor, n),
            0.7 + 0.25 * nf,
            0.35 + 0.10 * nf,
            0.1,
            0.08 + 0.03 * nf,
            8,
            std,
        );
        nor.pin_delay = skewed_pin_delays(&nor.function.clone(), nor.delay);
        lib.add(nor);
        lib.add(cell(
            &format!("AND{n}"),
            f,
            CellFunction::Gate(GateFn::And, n),
            0.9 + 0.25 * nf,
            0.45 + 0.09 * nf,
            0.1,
            0.10 + 0.03 * nf,
            8,
            std,
        ));
        lib.add(cell(
            &format!("OR{n}"),
            f,
            CellFunction::Gate(GateFn::Or, n),
            0.9 + 0.28 * nf,
            0.50 + 0.10 * nf,
            0.1,
            0.10 + 0.03 * nf,
            8,
            std,
        ));
    }
    lib.add(cell(
        "XOR2",
        f,
        CellFunction::Gate(GateFn::Xor, 2),
        1.6,
        0.70,
        0.1,
        0.25,
        6,
        std,
    ));
    lib.add(cell(
        "XNOR2",
        f,
        CellFunction::Gate(GateFn::Xnor, 2),
        1.6,
        0.70,
        0.1,
        0.25,
        6,
        std,
    ));
    lib.add(cell(
        "AOI21",
        f,
        CellFunction::Table(aoi21()),
        1.1,
        0.45,
        0.1,
        0.15,
        8,
        std,
    ));
    lib.add(cell(
        "OAI21",
        f,
        CellFunction::Table(oai21()),
        1.1,
        0.45,
        0.1,
        0.15,
        8,
        std,
    ));
    lib.add(cell(
        "AOI22",
        f,
        CellFunction::Table(aoi22()),
        1.4,
        0.55,
        0.1,
        0.18,
        8,
        std,
    ));
    add_storage_cells(&mut lib, f, 1.8, 0.9, 0.4);
    add_msi_cells(&mut lib, f);
    lib
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecl_has_power_grades() {
        let lib = ecl_library();
        let nor = lib.get("NOR2").unwrap();
        assert!(lib.faster_variant(nor).is_some());
        assert!(lib.slower_variant(nor).is_some());
        let fast = lib.faster_variant(nor).unwrap();
        assert!(fast.delay < nor.delay && fast.power > nor.power);
    }

    #[test]
    fn cmos_has_single_grade() {
        let lib = cmos_library();
        let nand = lib.get("NAND2").unwrap();
        assert!(lib.faster_variant(nand).is_none(), "strategy 2 is ECL-only");
    }

    #[test]
    fn ecl_lacks_xnor() {
        let lib = ecl_library();
        assert!(lib.get("XNOR2").is_none());
        assert!(lib.get("XOR2").is_some());
    }

    #[test]
    fn nor_is_fastest_simple_gate_in_ecl() {
        let lib = ecl_library();
        let nor = lib.get("NOR2").unwrap();
        let nand = lib.get("NAND2").unwrap();
        assert!(nor.delay < nand.delay, "ECL favours NOR/OR");
    }

    #[test]
    fn cla_trades_area_for_speed() {
        let lib = ecl_library();
        let rpl = lib.get("ADD4").unwrap();
        let cla = lib.get("ADD4CLA").unwrap();
        assert!(cla.delay < rpl.delay);
        assert!(cla.area > rpl.area);
        assert!(cla.power > rpl.power);
    }

    #[test]
    fn storage_cells_complete() {
        for lib in [ecl_library(), cmos_library()] {
            for name in [
                "DFF", "DFFS", "DFFR", "DFFE", "DFFSR", "DFFSRE", "LATCH", "LATCHSR",
            ] {
                assert!(lib.get(name).is_some(), "{} missing {name}", lib.name);
            }
        }
    }

    #[test]
    fn pin_delays_skewed() {
        let lib = ecl_library();
        let and3 = lib.get("AND3").unwrap();
        assert_eq!(and3.pin_delay.len(), 3);
        assert!(and3.pin_delay[0] < and3.pin_delay[2], "Fig. 9a skew");
    }

    #[test]
    fn aoi_tables_correct() {
        assert!(aoi21().eval(0b000));
        assert!(!aoi21().eval(0b011));
        assert!(!aoi21().eval(0b100));
        assert!(oai21().eval(0b000));
        assert!(!oai21().eval(0b101));
        assert!(aoi22().eval(0b0000));
        assert!(!aoi22().eval(0b0011));
        assert!(!aoi22().eval(0b1100));
    }
}
