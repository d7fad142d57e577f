//! Section 7.5: FNIR synthesis results (area model).
//!
//! Paper reference: the FNIR block (n=4, k=16), synthesized at FreePDK45 and
//! scaled to 15 nm with 50% wire overhead, is 0.0017 mm^2 — 21.25% of the
//! 4x4 multiplier array and 0.02% of an SCNN PE. We substitute a calibrated
//! gate-level model (DESIGN.md); the scaling trends in n and k are
//! structural.

use ant_bench::obs::Experiment;
use ant_bench::report::Table;
use ant_core::area::{fnir_gate_count, AreaModel};

fn main() {
    let model = AreaModel::calibrated();
    let exp = Experiment::start(
        "sec75_area",
        "Section 7.5: FNIR area model (calibrated gate-level substitute)",
    );
    println!();
    let mut table = Table::new(&["n", "k", "gates", "area mm^2 (15nm)", "% of nxn array"]);
    for (n, k) in [(4usize, 16usize), (4, 32), (6, 24), (8, 32), (16, 64)] {
        let gates = fnir_gate_count(n, k).total();
        let area = model.fnir_area_mm2(n, k);
        let frac = model.fnir_fraction_of_multiplier_array(n, k);
        table.push_row(vec![
            n.to_string(),
            k.to_string(),
            gates.to_string(),
            format!("{area:.5}"),
            format!("{:.2}%", frac * 100.0),
        ]);
    }
    print!("{}", table.render());
    println!("\npaper (n=4, k=16): 0.0017 mm^2, 21.25% of the 4x4 array, 0.02% of an SCNN PE.");
    println!(
        "model  (n=4, k=16): {:.5} mm^2, {:.2}% of the 4x4 array.",
        model.fnir_area_mm2(4, 16),
        model.fnir_fraction_of_multiplier_array(4, 16) * 100.0
    );
    exp.finish(&table);
}
