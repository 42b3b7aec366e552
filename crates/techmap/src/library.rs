//! Technology libraries: named collections of [`TechCell`]s with lookup
//! by name, by function, and by power level.

use milo_netlist::{CellFunction, GateFn, PowerLevel, TechCell};
use std::collections::HashMap;
use std::sync::Arc;

/// A technology library (e.g. an ECL gate-array or CMOS standard-cell
/// family).
///
/// Cell storage is shared copy-on-write ([`Arc`]): cloning a library —
/// which the critics and strategies do freely — is a reference-count
/// bump, and [`TechLibrary::add`] transparently unshares when needed.
///
/// # Examples
///
/// ```
/// use milo_techmap::ecl_library;
///
/// let lib = ecl_library();
/// let nor2 = lib.get("NOR2").expect("ECL has NOR2");
/// assert!(nor2.delay > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct TechLibrary {
    /// Library family name.
    pub name: String,
    inner: Arc<LibraryInner>,
}

#[derive(Clone, Debug, Default)]
struct LibraryInner {
    cells: Vec<TechCell>,
    index: HashMap<String, usize>,
}

impl TechLibrary {
    /// Creates an empty library.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            inner: Arc::new(LibraryInner::default()),
        }
    }

    /// Adds a cell. Replaces any cell with the same name.
    pub fn add(&mut self, cell: TechCell) {
        let inner = Arc::make_mut(&mut self.inner);
        match inner.index.get(&cell.name) {
            Some(&i) => inner.cells[i] = cell,
            None => {
                inner.index.insert(cell.name.clone(), inner.cells.len());
                inner.cells.push(cell);
            }
        }
    }

    /// Looks a cell up by name.
    pub fn get(&self, name: &str) -> Option<&TechCell> {
        self.inner.index.get(name).map(|&i| &self.inner.cells[i])
    }

    /// All cells.
    pub fn cells(&self) -> &[TechCell] {
        &self.inner.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.inner.cells.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.cells.is_empty()
    }

    /// Cells computing exactly `function`, any power level.
    pub fn cells_with_function(&self, function: &CellFunction) -> Vec<&TechCell> {
        self.inner
            .cells
            .iter()
            .filter(|c| &c.function == function)
            .collect()
    }

    /// The cell computing `function` at the given power level, if any.
    pub fn cell_at_level(&self, function: &CellFunction, level: PowerLevel) -> Option<&TechCell> {
        self.cells_with_function(function)
            .into_iter()
            .find(|c| c.level == level)
    }

    /// Power-level alternatives of the same function as `cell`
    /// (including `cell` itself), sorted by level.
    pub fn power_variants(&self, cell: &TechCell) -> Vec<&TechCell> {
        let mut v: Vec<&TechCell> = self.cells_with_function(&cell.function);
        v.sort_by_key(|c| c.level);
        v
    }

    /// A higher-power (faster) variant of `cell`, if one exists —
    /// strategy 2 of §4.1.2 ("only applicable to ECL logic").
    pub fn faster_variant(&self, cell: &TechCell) -> Option<&TechCell> {
        self.cells_with_function(&cell.function)
            .into_iter()
            .filter(|c| c.level > cell.level && c.delay < cell.delay)
            .min_by(|a, b| a.delay.partial_cmp(&b.delay).expect("delays are not NaN"))
    }

    /// A lower-power (slower) variant of `cell`, if one exists — used by
    /// the power critic on slack paths.
    pub fn slower_variant(&self, cell: &TechCell) -> Option<&TechCell> {
        self.cells_with_function(&cell.function)
            .into_iter()
            .filter(|c| c.level < cell.level && c.power < cell.power)
            .max_by(|a, b| a.delay.partial_cmp(&b.delay).expect("delays are not NaN"))
    }

    /// The standard-power buffer cell, used by the electric critic to fix
    /// fanout violations.
    pub fn buffer(&self) -> Option<&TechCell> {
        self.cell_at_level(&CellFunction::Gate(GateFn::Buf, 1), PowerLevel::Standard)
    }
}

/// Builder-style helper used by the shipped libraries.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cell(
    name: &str,
    family: &str,
    function: CellFunction,
    area: f64,
    delay: f64,
    load_delay: f64,
    power: f64,
    max_fanout: u32,
    level: PowerLevel,
) -> TechCell {
    TechCell {
        name: name.to_owned(),
        family: family.to_owned(),
        function,
        area,
        delay,
        pin_delay: Vec::new(),
        load_delay,
        power,
        max_fanout,
        level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> TechLibrary {
        let mut l = TechLibrary::new("t");
        l.add(cell(
            "NOR2_L",
            "t",
            CellFunction::Gate(GateFn::Nor, 2),
            1.0,
            0.9,
            0.1,
            0.3,
            4,
            PowerLevel::Low,
        ));
        l.add(cell(
            "NOR2",
            "t",
            CellFunction::Gate(GateFn::Nor, 2),
            1.0,
            0.6,
            0.1,
            0.65,
            6,
            PowerLevel::Standard,
        ));
        l.add(cell(
            "NOR2_H",
            "t",
            CellFunction::Gate(GateFn::Nor, 2),
            1.0,
            0.4,
            0.08,
            1.1,
            8,
            PowerLevel::High,
        ));
        l.add(cell(
            "BUF",
            "t",
            CellFunction::Gate(GateFn::Buf, 1),
            0.5,
            0.3,
            0.1,
            0.3,
            10,
            PowerLevel::Standard,
        ));
        l
    }

    #[test]
    fn lookup_and_variants() {
        let l = lib();
        let std = l.get("NOR2").unwrap();
        let fast = l.faster_variant(std).unwrap();
        assert_eq!(fast.name, "NOR2_H");
        assert!(fast.delay < std.delay);
        let slow = l.slower_variant(std).unwrap();
        assert_eq!(slow.name, "NOR2_L");
        assert_eq!(l.power_variants(std).len(), 3);
    }

    #[test]
    fn no_faster_than_high() {
        let l = lib();
        let h = l.get("NOR2_H").unwrap();
        assert!(l.faster_variant(h).is_none());
    }

    #[test]
    fn buffer_found() {
        assert_eq!(lib().buffer().unwrap().name, "BUF");
    }

    #[test]
    fn add_replaces_same_name() {
        let mut l = lib();
        let n = l.len();
        l.add(cell(
            "BUF",
            "t",
            CellFunction::Gate(GateFn::Buf, 1),
            0.4,
            0.2,
            0.1,
            0.2,
            12,
            PowerLevel::Standard,
        ));
        assert_eq!(l.len(), n);
        assert!((l.get("BUF").unwrap().area - 0.4).abs() < 1e-12);
    }
}
