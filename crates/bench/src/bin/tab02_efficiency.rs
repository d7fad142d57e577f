//! Table 2: outer-product efficiency for typical training convolution
//! dimensions (ImageNet/ResNet50 and CIFAR/ResNet18).

use ant_bench::obs::Experiment;
use ant_bench::report::Table;
use ant_conv::efficiency::table2_rows;

fn main() {
    let exp = Experiment::start(
        "tab02_efficiency",
        "Table 2: dense outer-product efficiency (Eq. 6)",
    );
    println!();
    let paper = [96.52, 0.07, 23.71, 0.09, 100.00, 0.03, 76.58, 3.53];
    let mut table = Table::new(&["phase", "RxS", "HxW", "Hout x Wout", "efficiency", "paper"]);
    for (row, paper_eff) in table2_rows().iter().zip(paper.iter()) {
        let s = row.shape;
        table.push_row(vec![
            row.phase.to_string(),
            format!("{}x{}", s.kernel_h(), s.kernel_w()),
            format!("{}x{}", s.image_h(), s.image_w()),
            format!("{}x{}", s.out_h(), s.out_w()),
            format!("{:.2}%", row.efficiency * 100.0),
            format!("{paper_eff:.2}%"),
        ]);
    }
    print!("{}", table.render());
    exp.finish(&table);
}
