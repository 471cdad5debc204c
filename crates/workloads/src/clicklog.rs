//! ClickLog input generation (paper §5.1).
//!
//! "The input takes the form of text files ... Each input line contains an
//! IP address. The output is the count of the number of unique IP
//! addresses in each geographic region. We simulate the geolocation
//! function to avoid external API calls."
//!
//! Keys are logical IP identifiers in `0..num_ips`; the simulated
//! geolocation function maps an IP to its region by equal adjacent key
//! ranges, exactly matching the partition generator.

use crate::zipf::ZipfSampler;
use hurricane_common::DetRng;

/// Generator parameters for one ClickLog input.
#[derive(Debug, Clone)]
pub struct ClickLogSpec {
    /// Number of distinct IP addresses (keys).
    pub num_ips: usize,
    /// Number of geographic regions.
    pub regions: usize,
    /// Zipf skew parameter `s` (0 = uniform).
    pub skew: f64,
    /// Number of click records to generate.
    pub records: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClickLogSpec {
    fn default() -> Self {
        Self {
            num_ips: 1 << 16,
            regions: 32,
            skew: 0.0,
            records: 100_000,
            seed: 0xC11C,
        }
    }
}

/// A deterministic stream of click records.
pub struct ClickLogGen {
    sampler: ZipfSampler,
    rng: DetRng,
    spec: ClickLogSpec,
    emitted: u64,
}

impl ClickLogGen {
    /// Creates the generator.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (no IPs, no regions, more regions
    /// than IPs).
    pub fn new(spec: ClickLogSpec) -> Self {
        assert!(spec.num_ips > 0 && spec.regions > 0);
        assert!(spec.regions <= spec.num_ips);
        Self {
            sampler: ZipfSampler::new(spec.num_ips, spec.skew),
            rng: DetRng::new(spec.seed),
            spec,
            emitted: 0,
        }
    }

    /// The generator's spec.
    pub fn spec(&self) -> &ClickLogSpec {
        &self.spec
    }

    /// The simulated geolocation function: region of IP key `ip`.
    ///
    /// Equal adjacent key ranges — identical to the partition generator,
    /// so region loads follow [`crate::zipf::region_masses`].
    pub fn region_of(&self, ip: u32) -> u32 {
        region_of(ip, self.spec.num_ips, self.spec.regions)
    }
}

impl Iterator for ClickLogGen {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.emitted >= self.spec.records {
            return None;
        }
        self.emitted += 1;
        Some(self.sampler.sample(&mut self.rng) as u32)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = usize::try_from(self.spec.records - self.emitted).ok();
        (left.unwrap_or(usize::MAX), left)
    }
}

impl ExactSizeIterator for ClickLogGen {}

/// The simulated geolocation function as a free function.
pub fn region_of(ip: u32, num_ips: usize, regions: usize) -> u32 {
    let r = (ip as u64 * regions as u64 / num_ips as u64) as u32;
    r.min(regions as u32 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_exactly_records() {
        let generated: Vec<u32> = ClickLogGen::new(ClickLogSpec {
            records: 1234,
            ..Default::default()
        })
        .collect();
        assert_eq!(generated.len(), 1234);
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = ClickLogSpec {
            records: 100,
            skew: 0.8,
            ..Default::default()
        };
        let a: Vec<u32> = ClickLogGen::new(spec.clone()).collect();
        let b: Vec<u32> = ClickLogGen::new(spec).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn regions_partition_key_space() {
        let num_ips = 1000;
        let regions = 7;
        let mut last = 0;
        for ip in 0..num_ips as u32 {
            let r = region_of(ip, num_ips, regions);
            assert!(r < regions as u32);
            assert!(r >= last, "region must be monotone in key");
            last = r;
        }
        assert_eq!(region_of(0, num_ips, regions), 0);
        assert_eq!(region_of(999, num_ips, regions), 6);
    }

    #[test]
    fn skewed_stream_loads_head_region() {
        let spec = ClickLogSpec {
            num_ips: 1 << 14,
            regions: 8,
            skew: 1.0,
            records: 50_000,
            seed: 9,
        };
        let generator = ClickLogGen::new(spec);
        let regions = generator.spec().regions;
        let num_ips = generator.spec().num_ips;
        let mut counts = vec![0u64; regions];
        for ip in generator {
            counts[region_of(ip, num_ips, regions) as usize] += 1;
        }
        assert!(
            counts[0] > counts[regions - 1] * 5,
            "head region should dominate: {counts:?}"
        );
    }

    #[test]
    fn uniform_stream_is_balanced() {
        let spec = ClickLogSpec {
            num_ips: 1 << 14,
            regions: 8,
            skew: 0.0,
            records: 80_000,
            seed: 10,
        };
        let generator = ClickLogGen::new(spec);
        let regions = generator.spec().regions;
        let num_ips = generator.spec().num_ips;
        let mut counts = vec![0u64; regions];
        for ip in generator {
            counts[region_of(ip, num_ips, regions) as usize] += 1;
        }
        let expect = 80_000.0 / 8.0;
        for (r, &c) in counts.iter().enumerate() {
            assert!((c as f64 - expect).abs() / expect < 0.1, "region {r}: {c}");
        }
    }
}
