// A recency list threaded through its elements. Each element carries its
// own prev/next links (the member pointers Prev and Next), so pushing,
// unlinking and moving an element to the front never allocate. The list
// does not own its elements. Front = most recently used.
#ifndef CFFS_UTIL_INTRUSIVE_LRU_H_
#define CFFS_UTIL_INTRUSIVE_LRU_H_

namespace cffs {

template <typename T, T* T::*Prev, T* T::*Next>
class IntrusiveLru {
 public:
  T* front() const { return head_; }
  T* back() const { return tail_; }

  // The element just ahead of `e` (more recently used), or nullptr.
  static T* Newer(const T* e) { return e->*Prev; }

  void PushFront(T* e) {
    e->*Prev = nullptr;
    e->*Next = head_;
    if (head_ != nullptr) {
      head_->*Prev = e;
    } else {
      tail_ = e;
    }
    head_ = e;
  }

  void Remove(T* e) {
    T* prev = e->*Prev;
    T* next = e->*Next;
    if (prev != nullptr) {
      prev->*Next = next;
    } else {
      head_ = next;
    }
    if (next != nullptr) {
      next->*Prev = prev;
    } else {
      tail_ = prev;
    }
    e->*Prev = nullptr;
    e->*Next = nullptr;
  }

  void MoveToFront(T* e) {
    if (e == head_) return;
    Remove(e);
    PushFront(e);
  }

  // Forgets every element (their links are left as they are).
  void Clear() { head_ = tail_ = nullptr; }

 private:
  T* head_ = nullptr;
  T* tail_ = nullptr;
};

}  // namespace cffs

#endif  // CFFS_UTIL_INTRUSIVE_LRU_H_
