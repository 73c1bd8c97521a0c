//! Quickstart: run the complete polychronous analysis and validation tool
//! chain on the paper's ProducerConsumer avionic case study and print the
//! resulting report.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use polychrony_core::{BatchJob, CoreError};

fn main() -> Result<(), CoreError> {
    let report = BatchJob::case_study("prodcons").run()?;

    println!("== Polychronous analysis of the ProducerConsumer case study ==\n");
    println!("{}", report.summary());

    println!("-- task set --\n{}", report.task_set_summary);
    println!("-- static schedule --\n{}", report.schedule.to_table());

    println!(
        "all checks passed: {}",
        if report.all_checks_passed() {
            "yes"
        } else {
            "NO"
        }
    );
    Ok(())
}
