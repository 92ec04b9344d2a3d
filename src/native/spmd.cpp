#include "src/native/spmd.h"

#include <exception>
#include <optional>

namespace bsplogp::native {

void Barrier::arrive_and_wait() {
  std::unique_lock<std::mutex> lock(mu_);
  if (poisoned_) throw AbortedError();
  arrived_ += 1;
  if (arrived_ >= parties_) {
    arrived_ = 0;
    phase_ += 1;
    cv_.notify_all();
    return;
  }
  const std::uint64_t my_phase = phase_;
  cv_.wait(lock, [&] { return poisoned_ || phase_ != my_phase; });
  if (poisoned_) throw AbortedError();
}

void Barrier::drop() {
  const std::lock_guard<std::mutex> lock(mu_);
  parties_ -= 1;
  BSPLOGP_ASSERT(parties_ >= 0);
  // The departing party may have been the last one everyone else was
  // waiting for.
  if (parties_ > 0 && arrived_ >= parties_) {
    arrived_ = 0;
    phase_ += 1;
    cv_.notify_all();
  }
}

void Barrier::poison() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    poisoned_ = true;
  }
  cv_.notify_all();
}

void spawn(ProcId nprocs, const std::function<void(World&)>& spmd,
           core::ThreadPool* pool) {
  BSPLOGP_EXPECTS(nprocs >= 1);
  BSPLOGP_EXPECTS(spmd != nullptr);

  std::optional<core::ThreadPool> transient;
  if (pool == nullptr) {
    transient.emplace(static_cast<int>(nprocs) - 1);
    pool = &*transient;
  }
  BSPLOGP_EXPECTS(pool->workers() + 1 >= static_cast<int>(nprocs));

  Barrier barrier(nprocs);
  std::mutex error_mu;
  std::exception_ptr first_error;

  pool->for_spmd(static_cast<std::size_t>(nprocs), [&](std::size_t i) {
    World world(barrier, nprocs, static_cast<ProcId>(i));
    try {
      spmd(world);
      // Finished processors leave the group so siblings with more
      // supersteps to run don't block on them (BSPlib bsp_end).
      barrier.drop();
    } catch (const AbortedError&) {
      // Secondary: some sibling failed first and poisoned the barrier.
      // Its exception is the one worth reporting.
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (first_error == nullptr) first_error = std::current_exception();
      }
      barrier.poison();
    }
  });

  // for_spmd rethrows too, but only whichever exception won its internal
  // race — which may be a secondary AbortedError. Prefer the real cause.
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace bsplogp::native
