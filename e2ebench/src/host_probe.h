// Host probe recorded with every result: CPU counts, an effective-core
// spin probe and a single-thread memory-bandwidth triad. On a shared
// 4-vCPU VM a pure-compute spin on 4 threads scaled anywhere from 1.05x
// to 4x from one run to the next, so multi-thread numbers mean little
// without it.

#ifndef E2EBENCH_HOST_PROBE_H_
#define E2EBENCH_HOST_PROBE_H_

#include <cstdint>

namespace e2ebench {

struct HostProbe {
  int nproc = 0;           // std::thread::hardware_concurrency()
  int affinity_cpus = 0;   // WorkerPool::AffinityCpus()
  int spin_threads = 0;    // threads the spin probe ran (min(nproc, 4))
  double effective_cores = 0.0;  // spin throughput on spin_threads / on 1
  double mem_bw_gbs = 0.0;       // triad a = b + s*c, best of 2, GB/s
  int64_t llc_bytes = 0;         // last-level cache size (0 = unknown)
  int64_t triad_bytes = 0;       // total bytes of the three triad arrays
};

/// Runs the probe. `threads` is the executor thread count the benchmark
/// uses for its parallel runs.
HostProbe ProbeHost(int threads);

}  // namespace e2ebench

#endif  // E2EBENCH_HOST_PROBE_H_
