//! Micro-benchmarks of the software PA substrate: the QARMA-like cipher,
//! signing, and authentication throughput, direct and through the
//! [`PacMemo`] the VM uses.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pythia_pa::{cipher, Key128, PaContext, PaKey, PacMemo};

fn bench_cipher(c: &mut Criterion) {
    let key = Key128::from_seed(7);
    c.bench_function("pa/cipher_encrypt", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            std::hint::black_box(cipher::encrypt(key, 0xABCD, x))
        })
    });
    c.bench_function("pa/mac24", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(1);
            std::hint::black_box(cipher::mac(key, 0xABCD, x, 24))
        })
    });
}

fn bench_sign_auth(c: &mut Criterion) {
    let ctx = PaContext::from_seed(1);
    c.bench_function("pa/sign", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(1) & 0xffff_ffff;
            std::hint::black_box(ctx.sign(PaKey::Da, v, 0x7fff_0040))
        })
    });
    c.bench_function("pa/sign_then_auth", |b| {
        let mut v = 0u64;
        b.iter_batched(
            || {
                v = v.wrapping_add(1) & 0xffff_ffff;
                ctx.sign(PaKey::Da, v, 0x7fff_0040)
            },
            |signed| std::hint::black_box(ctx.auth(PaKey::Da, signed, 0x7fff_0040)),
            BatchSize::SmallInput,
        )
    });
    // The VM's steady state (CPA re-signing and re-authenticating the
    // same few values): a small warm working set, so both operations hit.
    c.bench_function("pa/sign_then_auth_memo_hit", |b| {
        let mut memo = PacMemo::default();
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(1) & 0x3f;
            let signed = ctx.sign_memo(PaKey::Da, v, 0x7fff_0040, &mut memo);
            std::hint::black_box(ctx.auth_memo(PaKey::Da, signed, 0x7fff_0040, &mut memo))
        })
    });
    // Fresh values every time: the memo's overhead on top of the cipher.
    c.bench_function("pa/sign_memo_miss", |b| {
        let mut memo = PacMemo::default();
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(1) & 0xffff_ffff;
            std::hint::black_box(ctx.sign_memo(PaKey::Da, v, 0x7fff_0040, &mut memo))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_cipher, bench_sign_auth
}
criterion_main!(benches);
