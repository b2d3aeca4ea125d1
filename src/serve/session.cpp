#include "serve/session.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "mem/topology.hpp"

namespace haan::serve {

std::size_t Session::next_rows(std::size_t prefill_chunk) const {
  HAAN_EXPECTS(!finished());
  if (!prompt_done()) {
    const std::size_t remaining = prompt_len() - fed;
    return prefill_chunk == 0 ? remaining : std::min(prefill_chunk, remaining);
  }
  return 1;
}

bool Session::step_finishes(std::size_t prefill_chunk) const {
  return fed + next_rows(prefill_chunk) >= prompt_len() &&
         generated.size() + 1 >= max_new_tokens;
}

SessionTable::SessionTable(const model::ModelConfig& config)
    : n_blocks_(config.n_blocks),
      d_model_(config.d_model),
      max_seq_len_(config.max_seq_len) {}

Session* SessionTable::create(Request request, std::size_t prefill_chunk) {
  HAAN_EXPECTS(!request.tokens.empty());
  HAAN_EXPECTS(request.tokens.size() <= max_seq_len_);
  auto session = std::make_unique<Session>();
  // Fed tokens = prompt + (max_new - 1) decode feeds; clamp so the sequence
  // fits the model's positional range.
  const std::size_t decode_cap = max_seq_len_ - request.tokens.size() + 1;
  session->max_new_tokens = std::min(request.max_new_tokens, decode_cap);
  session->request = std::move(request);
  // A session that lives for exactly one step never attends over a cached
  // prefix: it gets no cache and no arena, so packs of such sessions keep
  // the span-parallel forward.
  const bool one_step = session->step_finishes(prefill_chunk);
  // The cache never stores more rows than prompt + max_new - 1 (the last
  // generated token is returned, never fed), so reserving prompt + max_new
  // rows makes every layer allocate exactly once.
  const std::size_t reserve_rows =
      session->prompt_len() + session->max_new_tokens;
  if (!one_step && mem::placement_enabled()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!arena_pool_.empty()) {
        session->kv_arena = std::move(arena_pool_.back());
        arena_pool_.pop_back();
      }
    }
    if (!session->kv_arena) {
      mem::ArenaOptions opts;
      // K + V per block, plus headroom for allocator rounding.
      opts.initial_bytes =
          n_blocks_ * 2 * reserve_rows * d_model_ * sizeof(float) + (64 << 10);
      // node stays -1: pages are placed by first touch on the worker that
      // prefills the session, which is where decode steps will read them.
      opts.interleave = mem::numa_mode() == mem::NumaMode::kInterleave;
      session->kv_arena = std::make_unique<mem::Arena>(opts);
    }
  }
  if (!one_step) {
    session->cache = model::KvCache(n_blocks_, d_model_,
                                    session->kv_arena.get(), reserve_rows);
  }
  Session* raw = session.get();
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] =
      sessions_.emplace(raw->request.id, std::move(session));
  HAAN_EXPECTS(inserted);
  (void)it;
  return raw;
}

void SessionTable::release(std::uint64_t id) {
  std::unique_ptr<Session> dead;
  std::unique_ptr<mem::Arena> arena;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(id);
    HAAN_EXPECTS(it != sessions_.end());
    kv_bytes_ -= it->second->kv_bytes_accounted;
    dead = std::move(it->second);
    sessions_.erase(it);
  }
  // Destroy the session (and its cache) while the arena is still alive, then
  // reset the arena — consolidating it to one slab at its high watermark —
  // and park it for the next create().
  arena = std::move(dead->kv_arena);
  dead.reset();
  if (arena) {
    arena->reset();
    std::lock_guard<std::mutex> lock(mu_);
    arena_pool_.push_back(std::move(arena));
  }
}

void SessionTable::account_kv(Session& session) {
  // Logical bytes (rows stored), not allocator capacity: capacity depends on
  // whether an arena or the heap backs the cache, and the resident gauge must
  // compare across HAAN_NUMA modes.
  const std::size_t bytes = session.cache.logical_bytes();
  std::lock_guard<std::mutex> lock(mu_);
  kv_bytes_ += bytes - session.kv_bytes_accounted;
  session.kv_bytes_accounted = bytes;
  max_kv_bytes_ = std::max(max_kv_bytes_, kv_bytes_);
}

std::size_t SessionTable::kv_bytes_resident() const {
  std::lock_guard<std::mutex> lock(mu_);
  return kv_bytes_;
}

std::size_t SessionTable::max_kv_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_kv_bytes_;
}

SessionTable::ArenaUsage SessionTable::arena_usage() const {
  ArenaUsage usage;
  const auto add = [&usage](const mem::Arena& arena) {
    const mem::ArenaStats& stats = arena.stats();
    usage.reserved_bytes += stats.reserved_bytes;
    usage.allocations += stats.allocations;
    usage.slab_allocations += stats.slab_allocations;
    usage.resets += stats.resets;
  };
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, session] : sessions_) {
    if (session->kv_arena) add(*session->kv_arena);
  }
  for (const auto& arena : arena_pool_) add(*arena);
  return usage;
}

}  // namespace haan::serve
