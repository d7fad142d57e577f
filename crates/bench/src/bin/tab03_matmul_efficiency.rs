//! Table 3: outer-product efficiency for matmul training phases of a text
//! translation transformer and a text classification RNN.

use ant_bench::obs::Experiment;
use ant_bench::report::Table;
use ant_conv::matmul::table3_rows;

fn main() {
    let exp = Experiment::start(
        "tab03_matmul_efficiency",
        "Table 3: matmul outer-product efficiency (= 1/R)",
    );
    println!();
    let paper = [
        1.39, 0.20, 10.00, 10.00, 1.56, 33.33, 33.33, 0.33, 12.50, 12.50, 0.33,
    ];
    let mut table = Table::new(&["phase", "HxW", "RxS", "efficiency", "paper"]);
    for (row, paper_eff) in table3_rows().iter().zip(paper.iter()) {
        let s = row.shape;
        table.push_row(vec![
            row.phase.to_string(),
            format!("{}x{}", s.image_h(), s.image_w()),
            format!("{}x{}", s.kernel_r(), s.kernel_s()),
            format!("{:.2}%", row.efficiency * 100.0),
            format!("{paper_eff:.2}%"),
        ]);
    }
    print!("{}", table.render());
    exp.finish(&table);
}
