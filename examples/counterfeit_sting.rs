//! A supply-chain sting: a lot mixing genuine chips with every
//! counterfeiting pathway the paper motivates (fall-out dies with forged
//! metadata, recycled chips, clones, re-branded parts) goes through
//! incoming inspection at the verification service, which knows only the
//! published extraction recipe. Every request also probes one sampled
//! segment for recycled wear.
//!
//! ```text
//! cargo run --release --example counterfeit_sting
//! ```

use flashmark::core::FlashmarkConfig;
use flashmark::registry::RecordVerdict;
use flashmark::serve::{class, PopulationSpec, ServiceConfig, VerificationService, VerifyRequest};

const TRUSTED_MFG: u16 = 0x7C01;
const SEED: u64 = 0x57196;
const PASSES: u64 = 16;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = FlashmarkConfig::builder()
        .n_pe(80_000)
        .replicas(7)
        .build()?;
    let population = PopulationSpec::tiny(SEED).build(&config, TRUSTED_MFG)?;
    println!("enrolled chips per class: {:?}", population.class_counts());
    let mut service =
        VerificationService::new(population, ServiceConfig::new(config, TRUSTED_MFG, SEED))?;

    let chips = service.population().len() as u64;
    let batch: Vec<VerifyRequest> = (0..PASSES * chips)
        .map(|i| VerifyRequest {
            request_id: i,
            chip_id: i % chips,
            probe: true,
        })
        .collect();
    let stats = service.process_batch(&batch, 2)?.stats;

    println!("\nverdict mix over {} probed requests:", batch.len());
    for (class, verdict, n) in stats.verdict_mix() {
        println!("  {class:<16} {verdict:<8} {n:>4}");
    }

    for (class, never) in [
        (class::GENUINE, RecordVerdict::Reject),
        (class::FALLOUT, RecordVerdict::Accept),
        (class::CLONE, RecordVerdict::Accept),
        (class::REBRANDED, RecordVerdict::Accept),
    ] {
        assert_eq!(stats.verdicts(class, never), 0, "{class}: {never:?}");
    }
    assert!(
        stats.verdicts(class::RECYCLED, RecordVerdict::Reject) > 0,
        "no probe caught the recycled chip's first-life wear"
    );
    Ok(())
}
