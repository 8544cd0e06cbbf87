//! `miro-eval`: regenerate every table and figure of the paper. The
//! commands are [`miro_eval::commands`]; `miro-eval help` lists them.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match miro_eval::commands::run(&args) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}
