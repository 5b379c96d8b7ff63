//! Host-speed normalisation for the CPU-bound workloads.
//!
//! The development host shares its cores with other tenants, and its speed
//! drifts by up to 1.4x over seconds to minutes: a whole 20-second run can
//! sit in a slow or in a fast spell. So the network and quality workloads
//! time a fixed reference kernel of the benchmark's own after every timed
//! operation and report nominal time: wall time scaled by [`NOMINAL_MS`]
//! over the mean of the kernel's times just before and just after the
//! operation. The kernel shares no code with the program, so a change to
//! the program moves nominal time as it would move wall time on a steady
//! host.

use std::hint::black_box;
use std::time::Instant;

/// Nominal reference-kernel time in milliseconds, about what the kernel
/// takes on the 2-core development box. Nominal times are wall times
/// scaled to a host on which the kernel takes exactly this long.
pub const NOMINAL_MS: f64 = 1.5;
/// Values the kernel generates and sorts.
const KERNEL_LEN: usize = 1 << 16;

/// The reference kernel and its last time.
pub struct HostSpeed {
    buf: Vec<u32>,
    last_ms: f64,
}

impl HostSpeed {
    /// Times the kernel once, as the "before" of the first operation.
    pub fn new() -> HostSpeed {
        let mut host = HostSpeed {
            buf: vec![0; KERNEL_LEN],
            last_ms: 0.0,
        };
        host.last_ms = host.kernel_ms();
        host
    }

    /// Wall milliseconds to fill the buffer from a fixed xorshift stream
    /// and sort it.
    fn kernel_ms(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9e37_79b9u32;
        for v in &mut self.buf {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            *v = x;
        }
        self.buf.sort_unstable();
        black_box(&self.buf);
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Times the kernel again and returns the factor that turns the wall
    /// time of the operation since the previous call into nominal time.
    pub fn factor(&mut self) -> f64 {
        let now = self.kernel_ms();
        let factor = NOMINAL_MS / ((self.last_ms + now) / 2.0);
        self.last_ms = now;
        factor
    }
}
