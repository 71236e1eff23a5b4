// Microbenchmarks of the substrate primitives CuSP's performance rests on:
// parallel loops, prefix sums, the concurrent bitset, serialization, and
// the message-passing runtime (including the buffered-vs-immediate send
// ablation at the primitive level).
#include <benchmark/benchmark.h>

#include <numeric>

#include "comm/network.h"
#include "graph/generators.h"
#include "support/bitset.h"
#include "support/prefix_sum.h"
#include "support/serialize.h"
#include "support/threading.h"

namespace {

using namespace cusp;

void BM_ParallelFor(benchmark::State& state) {
  const uint64_t n = 1 << 16;
  const unsigned threads = static_cast<unsigned>(state.range(0));
  std::vector<uint64_t> data(n, 1);
  for (auto _ : state) {
    std::atomic<uint64_t> sum{0};
    support::parallelFor(0, n, [&](uint64_t i) { sum.fetch_add(data[i]); },
                         threads);
    benchmark::DoNotOptimize(sum.load());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_ParallelFor)->Arg(1)->Arg(2)->Arg(4);

void BM_PrefixSumSequential(benchmark::State& state) {
  std::vector<uint64_t> in(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    auto out = support::exclusivePrefixSum(in);
    benchmark::DoNotOptimize(out.back());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PrefixSumSequential)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

void BM_PrefixSumParallel(benchmark::State& state) {
  std::vector<uint64_t> in(1 << 20, 3);
  const unsigned threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    auto out = support::parallelExclusivePrefixSum(in, threads);
    benchmark::DoNotOptimize(out.back());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) << 20);
}
BENCHMARK(BM_PrefixSumParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_BitsetSetCollect(benchmark::State& state) {
  const uint64_t n = 1 << 18;
  for (auto _ : state) {
    support::DynamicBitset bits(n);
    for (uint64_t i = 0; i < n; i += 5) {
      bits.set(i);
    }
    std::vector<uint64_t> out;
    bits.collectSetBits(out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_BitsetSetCollect);

void BM_SerializeEdgeBatch(benchmark::State& state) {
  std::vector<uint64_t> dsts(static_cast<size_t>(state.range(0)));
  std::iota(dsts.begin(), dsts.end(), 0);
  for (auto _ : state) {
    support::SendBuffer buf;
    support::serializeAll(buf, uint64_t{42}, dsts);
    benchmark::DoNotOptimize(buf.size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_SerializeEdgeBatch)->Arg(16)->Arg(256)->Arg(4096);

void BM_NetworkPingPong(benchmark::State& state) {
  comm::Network net(2);
  for (auto _ : state) {
    std::thread peer([&] {
      auto msg = net.recv(1, comm::kTagGeneric);
      net.send(1, 0, comm::kTagGeneric + 1, support::SendBuffer());
      benchmark::DoNotOptimize(msg.from);
    });
    support::SendBuffer buf;
    support::serialize(buf, uint64_t{1});
    net.send(0, 1, comm::kTagGeneric, std::move(buf));
    net.recv(0, comm::kTagGeneric + 1);
    peer.join();
  }
}
BENCHMARK(BM_NetworkPingPong);

// The message-buffering ablation at the primitive level: shipping 64k
// 8-byte records either immediately (threshold 0) or in large batches.
void BM_BufferedSend(benchmark::State& state) {
  const size_t threshold = static_cast<size_t>(state.range(0));
  const uint64_t records = 1 << 16;
  for (auto _ : state) {
    comm::Network net(2);
    comm::runHosts(net, [&](comm::HostId me) {
      if (me == 0) {
        comm::BufferedSender sender(net, 0, comm::kTagEdgeBatch, threshold);
        for (uint64_t i = 0; i < records; ++i) {
          sender.append(1, i);
        }
        sender.flushAll();
        net.send(0, 1, comm::kTagGeneric, support::SendBuffer());
      } else {
        for (;;) {
          if (net.tryRecv(1, comm::kTagEdgeBatch)) {
            continue;
          }
          if (net.tryRecv(1, comm::kTagGeneric)) {
            break;
          }
        }
      }
    });
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * records));
}
BENCHMARK(BM_BufferedSend)->Arg(0)->Arg(4 << 10)->Arg(256 << 10);

// Per-message overhead of the send hot path: 64k 8-byte records each
// committed as its OWN message (threshold 0, the worst case BM_BufferedSend
// ablates). Records are staged in the per-destination channel and sealed
// into ~1400-byte packets, so the mailbox is locked and the receiver woken
// once per ~170 records.
void BM_PerMessageSendPath(benchmark::State& state) {
  const uint64_t records = 1 << 16;
  for (auto _ : state) {
    comm::Network net(2);
    comm::runHosts(net, [&](comm::HostId me) {
      if (me == 0) {
        comm::BufferedSender sender(net, 0, comm::kTagEdgeBatch, 0);
        for (uint64_t i = 0; i < records; ++i) {
          sender.append(1, i);
        }
        sender.flushAll();
        net.send(0, 1, comm::kTagGeneric, support::SendBuffer());
      } else {
        for (;;) {
          if (net.tryRecv(1, comm::kTagEdgeBatch)) {
            continue;
          }
          if (net.tryRecv(1, comm::kTagGeneric)) {
            break;
          }
        }
      }
    });
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * records));
}
BENCHMARK(BM_PerMessageSendPath);

void BM_RmatGeneration(benchmark::State& state) {
  graph::RmatParams params;
  params.scale = 14;
  params.numEdges = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    auto g = graph::generateRmat(params);
    benchmark::DoNotOptimize(g.numEdges());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RmatGeneration)->Arg(1 << 14)->Arg(1 << 17);

}  // namespace

BENCHMARK_MAIN();
