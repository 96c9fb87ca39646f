#include "common/threading.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <utility>

#include "common/op_profile.h"
#include "common/watchdog.h"

namespace ode {

namespace {

/// Charges a blocking acquisition to the attached profile, if any.
/// Uncontended locks (try succeeds) charge nothing and skip the clock
/// reads entirely; with no profile attached the cost is one
/// thread-local pointer test.
template <typename NativeMutex, typename TryFn, typename LockFn>
void LockCharged(NativeMutex&, TryFn try_lock, LockFn lock) {
  obs::OpProfile* profile = obs::CurrentOpProfile();
  if (profile == nullptr) {
    lock();
    return;
  }
  if (try_lock()) return;
  auto start = std::chrono::steady_clock::now();
  lock();
  auto elapsed = std::chrono::steady_clock::now() - start;
  profile->lock_wait_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

}  // namespace

uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next_id{1};
  thread_local uint32_t id =
      next_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// ---------------------------------------------------------------------------
// Mutex

void Mutex::Lock() {
  LockRankValidator::OnAcquire(rank_, name_, this);
  // Claim before blocking: a thread wedged *waiting* for a
  // watchdog-visible lock is exactly what crash dumps should show.
  int slot = watchdog_visible_ ? obs::HoldRegistry::Claim(name_) : -1;
  LockCharged(mu_, [this] { return mu_.try_lock(); }, [this] { mu_.lock(); });
  hold_slot_ = slot;
}

bool Mutex::TryLock() {
  if (!mu_.try_lock()) return false;
  LockRankValidator::OnTryAcquire(rank_, name_, this);
  hold_slot_ = watchdog_visible_ ? obs::HoldRegistry::Claim(name_) : -1;
  return true;
}

void Mutex::Unlock() {
  int slot = hold_slot_;
  hold_slot_ = -1;
  mu_.unlock();
  obs::HoldRegistry::Release(slot);
  LockRankValidator::OnRelease(this);
}

void Mutex::PrepareWait() {
  obs::HoldRegistry::Release(hold_slot_);
  hold_slot_ = -1;
  LockRankValidator::OnRelease(this);
}

void Mutex::FinishWait() {
  LockRankValidator::OnTryAcquire(rank_, name_, this);
  hold_slot_ = watchdog_visible_ ? obs::HoldRegistry::Claim(name_) : -1;
}

// ---------------------------------------------------------------------------
// SharedMutex

void SharedMutex::Lock() {
  LockRankValidator::OnAcquire(rank_, name_, this);
  int slot = watchdog_visible_ ? obs::HoldRegistry::Claim(name_) : -1;
  LockCharged(mu_, [this] { return mu_.try_lock(); }, [this] { mu_.lock(); });
  hold_slot_ = slot;
}

bool SharedMutex::TryLock() {
  if (!mu_.try_lock()) return false;
  LockRankValidator::OnTryAcquire(rank_, name_, this);
  hold_slot_ = watchdog_visible_ ? obs::HoldRegistry::Claim(name_) : -1;
  return true;
}

void SharedMutex::Unlock() {
  int slot = hold_slot_;
  hold_slot_ = -1;
  mu_.unlock();
  obs::HoldRegistry::Release(slot);
  LockRankValidator::OnRelease(this);
}

void SharedMutex::LockShared() {
  LockRankValidator::OnAcquire(rank_, name_, this, /*exclusive=*/false);
  LockCharged(mu_, [this] { return mu_.try_lock_shared(); },
              [this] { mu_.lock_shared(); });
}

bool SharedMutex::TryLockShared() {
  if (!mu_.try_lock_shared()) return false;
  LockRankValidator::OnTryAcquire(rank_, name_, this, /*exclusive=*/false);
  return true;
}

void SharedMutex::UnlockShared() {
  mu_.unlock_shared();
  LockRankValidator::OnRelease(this);
}

// ---------------------------------------------------------------------------
// CondVar

void CondVar::Wait(MutexLock& lock) {
  Mutex* mu = lock.mu_;
  mu->PrepareWait();
  // Adopt the already-held native mutex for the wait, then hand
  // ownership back so the wrapper's bookkeeping stays authoritative.
  std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
  cv_.wait(native);
  native.release();
  mu->FinishWait();
}

std::cv_status CondVar::WaitFor(MutexLock& lock,
                                std::chrono::nanoseconds timeout) {
  Mutex* mu = lock.mu_;
  mu->PrepareWait();
  std::unique_lock<std::mutex> native(mu->mu_, std::adopt_lock);
  std::cv_status status = cv_.wait_for(native, timeout);
  native.release();
  mu->FinishWait();
  return status;
}

// ---------------------------------------------------------------------------
// BackgroundWorker

void BackgroundWorker::Submit(std::function<void()> task) {
  MutexLock lock(mu_);
  if (stopping_) return;
  queue_.push_back(std::move(task));
  if (!started_) {
    started_ = true;
    thread_ = std::thread(&BackgroundWorker::Loop, this);
  }
  work_cv_.NotifyOne();
}

void BackgroundWorker::Drain() {
  MutexLock lock(mu_);
  while (!((queue_.empty() && !busy_) || stopping_)) {
    idle_cv_.Wait(lock);
  }
}

void BackgroundWorker::Stop() {
  std::thread worker;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    queue_.clear();
    work_cv_.NotifyAll();
    idle_cv_.NotifyAll();
    // Move the handle out so the join below runs without the lock (the
    // exiting worker re-takes mu_ on its way out of Loop()).
    worker = std::move(thread_);
  }
  if (worker.joinable()) worker.join();
}

size_t BackgroundWorker::pending() const {
  MutexLock lock(mu_);
  return queue_.size();
}

void BackgroundWorker::Loop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !stopping_) work_cv_.Wait(lock);
      if (stopping_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
    }
    task();
    {
      MutexLock lock(mu_);
      busy_ = false;
      if (queue_.empty()) idle_cv_.NotifyAll();
    }
  }
}

}  // namespace ode
