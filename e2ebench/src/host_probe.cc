#include "host_probe.h"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/worker_pool.h"
#include "spans.h"

namespace e2ebench {
namespace {

/// Spins an integer hash for `ns` nanoseconds; returns iterations done.
uint64_t Spin(int64_t ns) {
  const int64_t end = NowNs() + ns;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  uint64_t iters = 0;
  while (NowNs() < end) {
    for (int i = 0; i < 4096; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    iters += 4096;
  }
  // Keep the loop observable so it is not folded away.
  return iters + (x == 0 ? 1 : 0);
}

/// Total spin iterations of `threads` threads spinning `ns` each.
uint64_t SpinOn(int threads, int64_t ns) {
  std::vector<uint64_t> iters(threads, 0);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&iters, t, ns] { iters[t] = Spin(ns); });
  }
  for (std::thread& th : pool) th.join();
  uint64_t total = 0;
  for (const uint64_t i : iters) total += i;
  return total;
}

double SpinScaling(int threads) {
  constexpr int64_t kSpinNs = 150'000'000;
  const double single = static_cast<double>(Spin(kSpinNs));
  const double total = static_cast<double>(SpinOn(threads, kSpinNs));
  return single > 0 ? total / single : 0.0;
}

int64_t LastLevelCacheBytes() {
  long size = 0;
#ifdef _SC_LEVEL3_CACHE_SIZE
  size = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (size <= 0) size = sysconf(_SC_LEVEL2_CACHE_SIZE);
#endif
  return size > 0 ? size : 0;
}

}  // namespace

HostProbe ProbeHost(int threads) {
  HostProbe p;
  p.nproc = static_cast<int>(std::thread::hardware_concurrency());
  p.affinity_cpus = dynagg::WorkerPool::AffinityCpus();
  p.spin_threads = std::max(1, threads);
  p.effective_cores = SpinScaling(p.spin_threads);

  // Triad over three arrays whose total is 4x the last-level cache, so the
  // passes stream from memory. Unknown cache sizes fall back to 256 MiB.
  p.llc_bytes = LastLevelCacheBytes();
  const int64_t total =
      std::max<int64_t>(4 * p.llc_bytes, int64_t{256} << 20);
  const size_t n = static_cast<size_t>(total / 3 / sizeof(double));
  p.triad_bytes = static_cast<int64_t>(3 * n * sizeof(double));
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double s = 3.0;
  double best_s = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    const int64_t start = NowNs();
    for (size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
    const double secs = static_cast<double>(NowNs() - start) * 1e-9;
    if (best_s == 0.0 || secs < best_s) best_s = secs;
  }
  // Reading a result keeps the stores observable.
  const volatile double sink = a[n / 2];
  (void)sink;
  // Bytes moved: b and c read, a written (write-allocate not counted).
  p.mem_bw_gbs = best_s > 0
                     ? static_cast<double>(p.triad_bytes) / best_s * 1e-9
                     : 0.0;
  return p;
}

}  // namespace e2ebench
