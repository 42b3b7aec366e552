//! Equivalence-checking utilities used to validate compiler output (and
//! reused across the workspace to validate the mapper and optimizers).

use milo_netlist::{ComponentKind, MicroComponent, Netlist, PinDir, Simulator};
use std::collections::HashMap;

/// Wraps a single microarchitecture component in a netlist whose ports
/// mirror the component's pins one-to-one.
pub fn micro_wrapper(micro: MicroComponent) -> Netlist {
    let mut nl = Netlist::new(format!("wrap_{}", micro.describe()));
    let comp = nl.add_component("u0", ComponentKind::Micro(micro));
    let pins: Vec<(String, PinDir)> = nl
        .component(comp)
        .expect("just added")
        .pins
        .iter()
        .map(|p| (p.name.clone(), p.dir))
        .collect();
    for (name, dir) in pins {
        let net = nl.add_net(name.clone());
        nl.connect_named(comp, &name, net).expect("fresh pin");
        nl.add_port(name, dir, net);
    }
    nl
}

fn input_names(nl: &Netlist) -> Vec<String> {
    nl.ports()
        .iter()
        .filter(|p| p.dir == PinDir::In)
        .map(|p| p.name.clone())
        .collect()
}

fn output_names(nl: &Netlist) -> Vec<String> {
    nl.ports()
        .iter()
        .filter(|p| p.dir == PinDir::Out)
        .map(|p| p.name.clone())
        .collect()
}

/// A simple deterministic xorshift generator so the crate needs no RNG
/// dependency for its own tests.
pub struct XorShift(u64);

impl XorShift {
    /// Creates a generator from a non-zero seed.
    pub fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    /// Next pseudo-random word.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// One input pattern: bit `i % 64` of word `i / 64` drives input `i`, so
/// every input gets its own bit however many there are.
struct Pattern(Vec<u64>);

impl Pattern {
    /// The next random pattern for `inputs` inputs: one word per 64 of
    /// them, so up to 64 inputs draw exactly one word, as they always did.
    fn random(rng: &mut XorShift, inputs: usize) -> Self {
        Self(
            (0..inputs.div_ceil(64).max(1))
                .map(|_| rng.next_u64())
                .collect(),
        )
    }

    fn bit(&self, input: usize) -> bool {
        self.0[input / 64] >> (input % 64) & 1 == 1
    }
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, word) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{word:#b}")?;
        }
        Ok(())
    }
}

/// Checks combinational equivalence of two netlists with identical port
/// lists. Exhaustive when the input count is at most 12, otherwise
/// `trials` random patterns.
///
/// Returns `Err` with a human-readable description of the first mismatch.
///
/// # Panics
///
/// Panics if the port lists disagree or either netlist fails to elaborate.
pub fn check_comb_equivalence(
    golden: &Netlist,
    candidate: &Netlist,
    trials: u32,
) -> Result<(), String> {
    let ins = input_names(golden);
    let outs = output_names(golden);
    assert_eq!(ins, input_names(candidate), "input ports differ");
    assert_eq!(
        {
            let mut a = outs.clone();
            a.sort();
            a
        },
        {
            let mut b = output_names(candidate);
            b.sort();
            b
        },
        "output ports differ"
    );
    let mut sim_g = Simulator::new(golden).expect("golden elaborates");
    let mut sim_c = Simulator::new(candidate).expect("candidate elaborates");

    let n = ins.len();
    let patterns: Vec<Pattern> = if n <= 12 {
        (0..(1u64 << n)).map(|p| Pattern(vec![p])).collect()
    } else {
        let mut rng = XorShift::new(0x5eed + n as u64);
        (0..trials).map(|_| Pattern::random(&mut rng, n)).collect()
    };
    for pat in patterns {
        for (i, name) in ins.iter().enumerate() {
            let v = pat.bit(i);
            sim_g.set_input(name, v).expect("input exists");
            sim_c.set_input(name, v).expect("input exists");
        }
        sim_g.settle();
        sim_c.settle();
        for o in &outs {
            let g = sim_g.output(o).expect("output exists");
            let c = sim_c.output(o).expect("output exists");
            if g != c {
                return Err(format!(
                    "output {o} differs under pattern {pat}: golden={g} candidate={c}"
                ));
            }
        }
    }
    Ok(())
}

/// Checks sequential equivalence: applies `steps` random input vectors,
/// clocking both netlists and comparing every output after each step and
/// after each intermediate settle.
///
/// # Panics
///
/// Panics if the port lists disagree or either netlist fails to elaborate.
pub fn check_seq_equivalence(
    golden: &Netlist,
    candidate: &Netlist,
    steps: u32,
    seed: u64,
) -> Result<(), String> {
    let ins = input_names(golden);
    let outs = output_names(golden);
    assert_eq!(ins, input_names(candidate), "input ports differ");
    let mut sim_g = Simulator::new(golden).expect("golden elaborates");
    let mut sim_c = Simulator::new(candidate).expect("candidate elaborates");
    let mut rng = XorShift::new(seed);
    let mut values: HashMap<String, bool> = HashMap::new();
    for step in 0..steps {
        let pat = Pattern::random(&mut rng, ins.len());
        for (i, name) in ins.iter().enumerate() {
            let v = pat.bit(i);
            values.insert(name.clone(), v);
            sim_g.set_input(name, v).expect("input exists");
            sim_c.set_input(name, v).expect("input exists");
        }
        sim_g.settle();
        sim_c.settle();
        for o in &outs {
            let g = sim_g.output(o).expect("output exists");
            let c = sim_c.output(o).expect("output exists");
            if g != c {
                return Err(format!(
                    "pre-clock output {o} differs at step {step} (inputs {values:?}): golden={g} candidate={c}"
                ));
            }
        }
        sim_g.step();
        sim_c.step();
        for o in &outs {
            let g = sim_g.output(o).expect("output exists");
            let c = sim_c.output(o).expect("output exists");
            if g != c {
                return Err(format!(
                    "post-clock output {o} differs at step {step} (inputs {values:?}): golden={g} candidate={c}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use milo_netlist::{GateFn, GenericMacro};

    fn inv_netlist(name: &str) -> Netlist {
        let mut nl = Netlist::new(name);
        let a = nl.add_net("a");
        let y = nl.add_net("y");
        let g = nl.add_component(
            "g",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Inv, 1)),
        );
        nl.connect_named(g, "A0", a).unwrap();
        nl.connect_named(g, "Y", y).unwrap();
        nl.add_port("a", PinDir::In, a);
        nl.add_port("y", PinDir::Out, y);
        nl
    }

    #[test]
    fn identical_netlists_are_equivalent() {
        let a = inv_netlist("a");
        let b = inv_netlist("b");
        assert!(check_comb_equivalence(&a, &b, 16).is_ok());
    }

    #[test]
    fn different_netlists_are_caught() {
        let a = inv_netlist("a");
        let mut b = Netlist::new("b");
        let x = b.add_net("a");
        let y = b.add_net("y");
        let g = b.add_component(
            "g",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Buf, 1)),
        );
        b.connect_named(g, "A0", x).unwrap();
        b.connect_named(g, "Y", y).unwrap();
        b.add_port("a", PinDir::In, x);
        b.add_port("y", PinDir::Out, y);
        assert!(check_comb_equivalence(&a, &b, 16).is_err());
    }

    /// `y = in{a} XOR in{b}` over 66 inputs, every other input unused.
    fn xor_of(name: &str, a: usize, b: usize) -> Netlist {
        let mut nl = Netlist::new(name);
        let ins: Vec<_> = (0..66)
            .map(|i| {
                let net = nl.add_net(format!("in{i}"));
                nl.add_port(format!("in{i}"), PinDir::In, net);
                net
            })
            .collect();
        let y = nl.add_net("y");
        let g = nl.add_component(
            "g",
            ComponentKind::Generic(GenericMacro::Gate(GateFn::Xor, 2)),
        );
        nl.connect_named(g, "A0", ins[a]).unwrap();
        nl.connect_named(g, "A1", ins[b]).unwrap();
        nl.connect_named(g, "Y", y).unwrap();
        nl.add_port("y", PinDir::Out, y);
        nl
    }

    /// Inputs 64 apart must not share a pattern bit: with aliasing,
    /// `in0 ^ in64` and `in1 ^ in65` both read constant 0.
    #[test]
    fn inputs_beyond_64_get_their_own_bits() {
        let golden = xor_of("golden", 0, 64);
        let candidate = xor_of("candidate", 1, 65);
        assert!(check_comb_equivalence(&golden, &candidate, 64).is_err());
        assert!(check_seq_equivalence(&golden, &candidate, 64, 7).is_err());
        assert!(check_comb_equivalence(&golden, &xor_of("same", 0, 64), 64).is_ok());
    }

    #[test]
    fn micro_wrapper_has_matching_ports() {
        let wrap = micro_wrapper(MicroComponent::Gate {
            function: GateFn::Or,
            inputs: 6,
        });
        assert_eq!(wrap.ports().len(), 7);
        assert_eq!(
            wrap.ports().iter().filter(|p| p.dir == PinDir::In).count(),
            6
        );
    }
}
