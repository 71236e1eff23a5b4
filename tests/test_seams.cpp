// Concurrent attach/detach of the process-wide seams.
//
// The service layer turned the seams — storage-fault injector, memory
// budget, observability sink — from per-run scoped state into
// infrastructure shared by every concurrent job in the process. The
// documented contract (service/engine.h) is attach-once-per-process, but
// the seam machinery itself must stay data-race-free even when scopes
// attach, restore, and get consulted from many threads at once: a TSan run
// of this suite is the proof. Interleaved restores from different threads
// may leave an arbitrary (stale) seam attached — that ordering is
// explicitly unspecified — so these tests assert absence of races and
// crashes, then detach explicitly to leave the process clean.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/obs.h"
#include "support/memory.h"
#include "support/storage.h"

namespace cusp {
namespace {

constexpr int kAttachThreads = 4;
constexpr int kUserThreads = 4;
constexpr int kAttachIters = 200;
constexpr int kUserIters = 600;

// Runs `attach` in kAttachThreads loops and `use` in kUserThreads loops
// concurrently; any data race in the seam's attach/consult paths is TSan's
// to report.
template <typename AttachFn, typename UseFn>
void hammer(AttachFn attach, UseFn use) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kAttachThreads + kUserThreads);
  for (int t = 0; t < kAttachThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAttachIters; ++i) {
        attach(t, i);
      }
    });
  }
  for (int t = 0; t < kUserThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kUserIters && !stop.load(); ++i) {
        use(t, i);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
}

TEST(SeamConcurrencyTest, StorageFaultScopesRaceFree) {
  char tmpl[] = "/tmp/cusp_seams_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;

  hammer(
      [](int, int) {
        support::ScopedStorageFaults scope{support::StorageFaultPlan{}};
        (void)scope.stats();
      },
      [&](int t, int i) {
        // One probe file per writer thread: the atomic-write staging path
        // is per-target, so concurrent writers need distinct targets.
        const uint8_t byte = static_cast<uint8_t>(i);
        support::atomicWriteFile(dir + "/probe" + std::to_string(t), &byte,
                                 1);
        const auto injector = support::storageFaults();
        if (injector) {
          (void)injector->stats();
        }
      });

  support::detachStorageFaults();
  EXPECT_EQ(support::storageFaults(), nullptr);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(SeamConcurrencyTest, MemoryBudgetScopesRaceFree) {
  hammer(
      [](int, int) {
        support::ScopedMemoryBudget scope(64ull << 20);
        (void)scope.stats();
      },
      [](int, int) {
        if (support::memoryBudgetAttached()) {
          const auto budget = support::memoryBudget();
          if (budget) {
            (void)budget->stats();
          }
        }
      });

  support::detachMemoryBudget();
  EXPECT_FALSE(support::memoryBudgetAttached());
}

TEST(SeamConcurrencyTest, ObservabilityScopesRaceFree) {
  hammer(
      [](int, int) {
        obs::ScopedObservability scope;
        scope.metrics().counter("test.seams.attach").add();
      },
      [](int, int i) {
        if (const auto sink = obs::sink()) {
          sink.metrics->counter("test.seams.use").add();
          sink.metrics->gauge("test.seams.gauge")
              .set(static_cast<double>(i));
        }
      });

  obs::detach();
  EXPECT_FALSE(obs::attached());
}

TEST(SeamConcurrencyTest, AllSeamsTogetherRaceFree) {
  // The daemon's real shape: every seam cycling at once while users consult
  // all three — cross-seam interleavings included.
  hammer(
      [](int t, int i) {
        switch ((t + i) % 3) {
          case 0: {
            support::ScopedStorageFaults s{support::StorageFaultPlan{}};
            break;
          }
          case 1: {
            support::ScopedMemoryBudget s(32ull << 20);
            break;
          }
          default: {
            obs::ScopedObservability s;
            break;
          }
        }
      },
      [](int, int i) {
        if (const auto sink = obs::sink()) {
          sink.metrics->counter("test.seams.mixed").add();
        }
        if (support::memoryBudgetAttached()) {
          if (const auto budget = support::memoryBudget()) {
            (void)budget->stats();
          }
        }
        if (const auto injector = support::storageFaults()) {
          (void)injector->stats();
        }
        (void)i;
      });

  support::detachStorageFaults();
  support::detachMemoryBudget();
  obs::detach();
}

}  // namespace
}  // namespace cusp
