//! Inspect the co-processor pipeline through the event log: run a short
//! elastic kernel with the log enabled and print the gem5-style pipeview
//! of its instruction stages (R = rename, I = issue, C = complete,
//! X = retire).
//!
//! ```text
//! cargo run --release --example pipeview
//! ```

use occamy::prelude::*;
use occamy::sim::render_pipeview;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 64u64;
    let mut mem = Memory::new(1 << 20);
    let (a, b, c) = (mem.alloc_f32(n), mem.alloc_f32(n), mem.alloc_f32(n));
    for i in 0..n {
        mem.write_f32(a + 4 * i, i as f32);
        mem.write_f32(b + 4 * i, 1.0);
    }
    let kernel = Kernel::new("triad")
        .assign("c", Expr::load("a") * Expr::constant(3.0) + Expr::load("b"));
    let mut layout = ArrayLayout::new();
    layout.bind("a", a).bind("b", b).bind("c", c);
    let program = Compiler::new(CodeGenOptions::default())
        .compile(&[(kernel, n as usize)], &layout)?;

    let mut machine = Machine::new(SimConfig::paper_2core(), Architecture::Occamy, mem)?;
    machine.enable_events(1024);
    machine.load_program(0, program);
    let stats = machine.run(100_000).expect("simulation fault");
    assert!(stats.completed);

    println!("{} events captured over {} cycles\n", machine.events().len(), stats.cycles);
    print!("{}", render_pipeview(machine.events()));
    println!(
        "\nReading: dots between R and I are operand/structural waits; \
         between I and C, execution or memory latency."
    );
    Ok(())
}
