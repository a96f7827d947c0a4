//! Records the compiler version and build profile, which every result
//! reports beside the core count.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .unwrap_or_default();
    println!("cargo:rustc-env=FLOWBENCH_RUSTC={}", version.trim());
    println!(
        "cargo:rustc-env=FLOWBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_default()
    );
    println!("cargo:rerun-if-changed=build.rs");
}
