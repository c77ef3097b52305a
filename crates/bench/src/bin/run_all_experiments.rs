//! Run the experiment battery (the source of EXPERIMENTS.md numbers): every
//! experiment when called with no argument, the named ones when called with
//! ids (`run_all_experiments E3 E9`).
fn main() {
    let battery = mde_bench::experiments::all();
    let ids: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = ids
        .iter()
        .find(|id| !battery.iter().any(|(known, ..)| known == id))
    {
        eprintln!("unknown experiment `{unknown}`; the ids are:");
        for (id, title, _) in &battery {
            eprintln!("  {id:<4}{title}");
        }
        std::process::exit(2);
    }
    for (id, title, run) in battery {
        if !ids.is_empty() && !ids.iter().any(|wanted| wanted == id) {
            continue;
        }
        println!("================================================================");
        println!("{id}: {title}");
        println!("================================================================");
        println!("{}", run());
    }
}
