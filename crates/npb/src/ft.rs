//! FT — the NPB 3D FFT kernel.
//!
//! A real complex-to-complex 3D FFT with slab decomposition: x/y transforms
//! are local to each rank's z-slab, then a global **alltoall transpose**
//! redistributes the grid so the z transform is local too. Per iteration
//! the spectrum is evolved by an exponential factor and a checksum is
//! allreduced — the communication profile is one full alltoall per
//! iteration plus small collectives, which (like IS) keeps every VI busy
//! under both connection managers.

use crate::class::Class;
use crate::result::KernelResult;
use viampi_core::{from_bytes, to_bytes, Mpi, ReduceOp};
use viampi_sim::SplitMix64;

struct Params {
    n: usize,
    iterations: usize,
}

fn params(class: Class) -> Params {
    // NPB (real): A: 256²×128 / 6 it, B: 512×256² / 20, C: 512³ / 20.
    // Scaled to cubes; ratios kept.
    match class {
        Class::S => Params {
            n: 16,
            iterations: 2,
        },
        Class::A => Params {
            n: 32,
            iterations: 6,
        },
        Class::B => Params {
            n: 64,
            iterations: 10,
        },
        Class::C => Params {
            n: 64,
            iterations: 20,
        },
    }
}

/// In-place radix-2 Cooley-Tukey FFT over interleaved (re, im) pairs.
/// `inverse` applies the conjugate transform (unscaled).
fn fft_line(buf: &mut [(f64, f64)], inverse: bool) {
    let n = buf.len();
    debug_assert!(n.is_power_of_two());
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let (ur, ui) = buf[i + k];
                let (vr, vi) = buf[i + k + len / 2];
                let (tr, ti) = (vr * cr - vi * ci, vr * ci + vi * cr);
                buf[i + k] = (ur + tr, ui + ti);
                buf[i + k + len / 2] = (ur - tr, ui - ti);
                let (ncr, nci) = (cr * wr - ci * wi, cr * wi + ci * wr);
                cr = ncr;
                ci = nci;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Run FT. `np` must be a power of two dividing the grid side; the result
/// is deterministic and independent of `np`.
pub fn run(mpi: &Mpi, class: Class) -> KernelResult {
    let p = params(class);
    let (rank, np) = (mpi.rank(), mpi.size());
    let n = p.n;
    assert!(n.is_multiple_of(np), "grid side divisible by np");
    let slab = n / np; // my z-planes in the first layout

    // Initial condition: deterministic pseudo-random complex field,
    // generated per global z-plane so every np gives the same field.
    let mut u: Vec<(f64, f64)> = Vec::with_capacity(slab * n * n);
    for gz in rank * slab..(rank + 1) * slab {
        let mut rng = SplitMix64::new(0xF7A9 ^ (gz as u64 * 0x9E37_79B9));
        for _ in 0..n * n {
            u.push((rng.next_f64() - 0.5, rng.next_f64() - 0.5));
        }
    }

    mpi.barrier();
    let t0 = mpi.now();

    let idx = |x: usize, y: usize, z: usize| (z * n + y) * n + x;
    let mut checksum = (0.0f64, 0.0f64);
    let flops_per_line = 5.0 * n as f64 * (n as f64).log2();

    for iter in 1..=p.iterations {
        // --- forward FFT in x then y, local to each z-plane -------------
        let mut line = vec![(0.0, 0.0); n];
        for z in 0..slab {
            for y in 0..n {
                for x in 0..n {
                    line[x] = u[idx(x, y, z)];
                }
                fft_line(&mut line, false);
                for x in 0..n {
                    u[idx(x, y, z)] = line[x];
                }
            }
            for x in 0..n {
                for y in 0..n {
                    line[y] = u[idx(x, y, z)];
                }
                fft_line(&mut line, false);
                for y in 0..n {
                    u[idx(x, y, z)] = line[y];
                }
            }
        }
        mpi.compute(2.0 * (slab * n) as f64 * flops_per_line);

        // --- global transpose: z-slabs → x-slabs via alltoall ------------
        // Destination rank d gets my elements with x ∈ [d·slab, (d+1)·slab).
        let mut send: Vec<Vec<u8>> = Vec::with_capacity(np);
        for d in 0..np {
            let mut block: Vec<f64> = Vec::with_capacity(slab * slab * n * 2);
            for z in 0..slab {
                for y in 0..n {
                    for x in d * slab..(d + 1) * slab {
                        let (re, im) = u[idx(x, y, z)];
                        block.push(re);
                        block.push(im);
                    }
                }
            }
            send.push(to_bytes(&block));
        }
        let recv = mpi.alltoall(send);
        // New layout: for my x-slab, all z: v[(x_local, y, gz)].
        let vidx = |xl: usize, y: usize, gz: usize| (xl * n + y) * n + gz;
        let mut v = vec![(0.0f64, 0.0f64); slab * n * n];
        for (src, block) in recv.iter().enumerate() {
            let vals: Vec<f64> = from_bytes(block);
            let mut it = vals.chunks_exact(2);
            for zl in 0..slab {
                let gz = src * slab + zl;
                for y in 0..n {
                    for xl in 0..slab {
                        let c = it.next().expect("block length");
                        v[vidx(xl, y, gz)] = (c[0], c[1]);
                    }
                }
            }
        }
        mpi.compute((slab * n * n) as f64 * 2.0);

        // --- FFT in z (now local) + spectral evolution -------------------
        for xl in 0..slab {
            for y in 0..n {
                for gz in 0..n {
                    line[gz] = v[vidx(xl, y, gz)];
                }
                fft_line(&mut line, false);
                // Evolve: damp each mode by exp(-k² t)-ish factor.
                for (gz, c) in line.iter_mut().enumerate() {
                    let k = gz.min(n - gz) as f64;
                    let f = (-0.001 * k * k * iter as f64).exp();
                    c.0 *= f;
                    c.1 *= f;
                }
                fft_line(&mut line, true);
                for gz in 0..n {
                    // Unscaled inverse: divide by n.
                    v[vidx(xl, y, gz)] = (line[gz].0 / n as f64, line[gz].1 / n as f64);
                }
            }
        }
        mpi.compute(2.0 * (slab * n) as f64 * flops_per_line);

        // --- checksum over a deterministic index set (NPB-style) ---------
        let mut local = (0.0f64, 0.0f64);
        for j in 0..64u64 {
            let q = (j * 23 + 5) as usize % n;
            let r = (j * 19 + 3) as usize % n;
            let s = (j * 17 + 7) as usize % n;
            if q / slab == rank {
                let c = v[vidx(q % slab, r, s)];
                local.0 += c.0;
                local.1 += c.1;
            }
        }
        let g = mpi.allreduce(&[local.0, local.1], ReduceOp::Sum);
        checksum = (g[0], g[1]);

        // Transpose back for the next iteration's x/y transforms: inverse
        // alltoall (x-slabs → z-slabs), undoing the earlier exchange.
        let mut send2: Vec<Vec<u8>> = Vec::with_capacity(np);
        for d in 0..np {
            let mut block: Vec<f64> = Vec::with_capacity(slab * slab * n * 2);
            for zl in 0..slab {
                let gz = d * slab + zl;
                for y in 0..n {
                    for xl in 0..slab {
                        let c = v[vidx(xl, y, gz)];
                        block.push(c.0);
                        block.push(c.1);
                    }
                }
            }
            send2.push(to_bytes(&block));
        }
        let recv2 = mpi.alltoall(send2);
        for (src, block) in recv2.iter().enumerate() {
            let vals: Vec<f64> = from_bytes(block);
            let mut it = vals.chunks_exact(2);
            for z in 0..slab {
                for y in 0..n {
                    for x in src * slab..(src + 1) * slab {
                        let c = it.next().expect("block length");
                        u[idx(x, y, z)] = (c[0], c[1]);
                    }
                }
            }
        }
        // Undo the x/y forward transforms so `u` is back in physical space
        // (inverse y then x), keeping the field bounded across iterations.
        for z in 0..slab {
            for x in 0..n {
                for y in 0..n {
                    line[y] = u[idx(x, y, z)];
                }
                fft_line(&mut line, true);
                for y in 0..n {
                    u[idx(x, y, z)] = (line[y].0 / n as f64, line[y].1 / n as f64);
                }
            }
            for y in 0..n {
                for x in 0..n {
                    line[x] = u[idx(x, y, z)];
                }
                fft_line(&mut line, true);
                for x in 0..n {
                    u[idx(x, y, z)] = (line[x].0 / n as f64, line[x].1 / n as f64);
                }
            }
        }
        mpi.compute(2.0 * (slab * n) as f64 * flops_per_line);
    }

    mpi.barrier();
    let time = mpi.now().since(t0).as_secs_f64();

    // Verification: the damped spectrum keeps the field bounded, the
    // checksum is finite, and (checked in tests) independent of np.
    let energy: f64 = u.iter().map(|c| c.0 * c.0 + c.1 * c.1).sum();
    let total_energy = mpi.allreduce(&[energy], ReduceOp::Sum)[0];
    let verified = checksum.0.is_finite()
        && checksum.1.is_finite()
        && total_energy.is_finite()
        && total_energy > 0.0;

    KernelResult {
        name: "ft",
        class,
        np,
        time_secs: time,
        verified,
        checksum: checksum.0 + checksum.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fft_roundtrip_recovers_input() {
        let n = 64;
        let mut rng = SplitMix64::new(5);
        let orig: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect();
        let mut buf = orig.clone();
        fft_line(&mut buf, false);
        fft_line(&mut buf, true);
        for (a, b) in orig.iter().zip(&buf) {
            assert!((a.0 - b.0 / n as f64).abs() < 1e-12);
            assert!((a.1 - b.1 / n as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let n = 16;
        let mut buf = vec![(0.0, 0.0); n];
        buf[0] = (1.0, 0.0);
        fft_line(&mut buf, false);
        for c in &buf {
            assert!((c.0 - 1.0).abs() < 1e-12 && c.1.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_parseval_energy_preserved() {
        let n = 128;
        let mut rng = SplitMix64::new(9);
        let orig: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.next_f64() - 0.5, rng.next_f64() - 0.5))
            .collect();
        let e_time: f64 = orig.iter().map(|c| c.0 * c.0 + c.1 * c.1).sum();
        let mut buf = orig;
        fft_line(&mut buf, false);
        let e_freq: f64 = buf.iter().map(|c| c.0 * c.0 + c.1 * c.1).sum::<f64>() / n as f64;
        assert!((e_time - e_freq).abs() < 1e-9 * e_time);
    }
}
