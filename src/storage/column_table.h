#ifndef IPDB_STORAGE_COLUMN_TABLE_H_
#define IPDB_STORAGE_COLUMN_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "math/rational.h"
#include "util/status.h"

namespace ipdb {
namespace storage {

/// Columnar storage for one relation: each argument position is a flat
/// `std::vector<uint32_t>` of dictionary ids, probabilities are a packed
/// `double` column, and exactness — needed only by the rational PDB
/// instantiations and by callers that demand exact marginals — lives in
/// a sparse side table keyed by row. A sorted permutation over the rows
/// (the "sorted run") provides binary-search point and prefix lookups
/// without disturbing row identity: row r keeps meaning "the r-th fact
/// appended", which is what lineage variables and probability vectors
/// index by.
///
/// Cost per fact: 4·arity bytes of ids + 8 bytes of probability +
/// 4 bytes of sorted-run entry — e.g. 24 bytes for a binary relation,
/// versus the hundreds of bytes and several pointer chases of the
/// object-per-tuple `std::vector<std::pair<rel::Fact, P>>` it replaces.
///
/// Build protocol: `AppendRow` n times (cheap, no ordering work), then
/// one `FinishBuild` (sort + duplicate detection). Afterwards the table
/// is *live*: `Insert`, `EraseRow` and `SetProbability` keep the sorted
/// run coherent. EraseRow renumbers the rows above the erased one —
/// callers that hand out row-based identities (TiStore) bump their
/// structure generation exactly because of this.
class ColumnTable {
 public:
  explicit ColumnTable(int arity);

  int arity() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const { return static_cast<int64_t>(probs_.size()); }

  /// Pre-sizes all columns for `rows` rows.
  void Reserve(int64_t rows);

  /// Appends one row (ids[0..arity)); no ordering maintenance — call
  /// FinishBuild before the first lookup.
  void AppendRow(const uint32_t* ids, double prob);

  /// Sorts the run and rejects duplicate rows. On a duplicate, fails
  /// with kInvalidArgument and reports one offending row index through
  /// `duplicate_row` (if non-null) so the caller can render the fact.
  Status FinishBuild(int64_t* duplicate_row = nullptr);

  /// Binary search for an exact row; -1 when absent.
  int64_t FindRow(const uint32_t* ids) const;

  /// Rows whose first `prefix_len` columns equal `prefix`, as the
  /// half-open range [begin, end) into the sorted run; enumerate the
  /// matching rows as sorted_row(k) for k in the range.
  std::pair<int64_t, int64_t> PrefixRange(const uint32_t* prefix,
                                          int prefix_len) const;

  /// The row at sorted-run position k.
  uint32_t sorted_row(int64_t k) const {
    return sorted_[static_cast<size_t>(k)];
  }

  /// Inserts a new row at index num_rows(); fails on duplicates.
  StatusOr<int64_t> Insert(const uint32_t* ids, double prob);

  /// Removes a row; every row index above it shifts down by one.
  void EraseRow(int64_t row);

  void SetProbability(int64_t row, double prob);

  /// Installs / clears / reads the exact-rational marginal of a row.
  void SetExact(int64_t row, math::Rational value);
  void ClearExact(int64_t row);
  /// Null when the row has no exact entry (its probability is the packed
  /// double).
  const math::Rational* ExactAt(int64_t row) const;
  int64_t num_exact() const { return static_cast<int64_t>(exact_.size()); }

  uint32_t id(int col, int64_t row) const {
    return columns_[static_cast<size_t>(col)][static_cast<size_t>(row)];
  }
  const std::vector<uint32_t>& column(int col) const {
    return columns_[static_cast<size_t>(col)];
  }
  double prob(int64_t row) const { return probs_[static_cast<size_t>(row)]; }
  const std::vector<double>& probs() const { return probs_; }
  /// The sorted permutation (row indices in lexicographic column order)
  /// and the sparse exact side table (sorted by row) — exposed whole for
  /// serialization, so a snapshot can persist them instead of re-sorting
  /// on restore.
  const std::vector<uint32_t>& sorted_run() const { return sorted_; }
  const std::vector<std::pair<uint32_t, math::Rational>>& exact_entries()
      const {
    return exact_;
  }

  /// Replaces the table's contents wholesale with deserialized state.
  /// Every invariant the build path establishes is re-validated here —
  /// column lengths agree, the sorted run is a strictly-increasing (in
  /// lexicographic row order) permutation, exact entries are sorted by
  /// row and in range — because the input comes from disk and must not
  /// be trusted. Returns kDataLoss on any violation, leaving the table
  /// unchanged.
  Status RestoreRows(std::vector<std::vector<uint32_t>> columns,
                     std::vector<double> probs, std::vector<uint32_t> sorted,
                     std::vector<std::pair<uint32_t, math::Rational>> exact);

  /// Releases over-allocation after a bulk build.
  void ShrinkToFit();

  int64_t ApproxBytes() const;

 private:
  /// Lexicographic row order over the id columns.
  bool RowLess(int64_t a, int64_t b) const;
  bool RowEquals(int64_t a, const uint32_t* ids) const;
  /// Three-way compare of row `a` against a key prefix.
  int CompareRowPrefix(int64_t a, const uint32_t* prefix,
                       int prefix_len) const;

  std::vector<std::vector<uint32_t>> columns_;
  std::vector<double> probs_;
  /// Row indices in lexicographic column order.
  std::vector<uint32_t> sorted_;
  /// Sparse exact marginals, sorted by row.
  std::vector<std::pair<uint32_t, math::Rational>> exact_;
};

/// The rows of a table whose *bound* argument positions hold given ids —
/// the row scan shared by the guarded grounder and the lifted evaluator.
/// The leading run of bound positions narrows the sorted run with
/// PrefixRange (an atom S(c, y) reads only c's rows); bound positions
/// after the first unbound one are compared row by row. `bound` and
/// `key` are borrowed and must outlive the scan; key[p] is read only
/// where bound[p] is set.
class BoundRowScan {
 public:
  BoundRowScan(const ColumnTable& table, const std::vector<bool>& bound,
               const uint32_t* key);

  /// Sorted-run positions left after narrowing: an upper bound on the
  /// matching rows and the number ForEach visits.
  int64_t span() const { return end_ - begin_; }
  /// Leading bound positions the range was narrowed by; within the range
  /// the sorted run orders column prefix() next.
  int prefix() const { return prefix_; }

  /// Calls fn(row) for every matching row, in sorted-run order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const int arity = table_->arity();
    for (int64_t k = begin_; k < end_; ++k) {
      const int64_t row = table_->sorted_row(k);
      bool match = true;
      // Position prefix_ is the first unbound one (or past the end).
      for (int p = prefix_ + 1; p < arity && match; ++p) {
        match = !(*bound_)[static_cast<size_t>(p)] ||
                table_->id(p, row) == key_[p];
      }
      if (match) fn(row);
    }
  }

 private:
  const ColumnTable* table_;
  const std::vector<bool>* bound_;
  const uint32_t* key_;
  int prefix_ = 0;
  int64_t begin_ = 0;
  int64_t end_ = 0;
};

}  // namespace storage
}  // namespace ipdb

#endif  // IPDB_STORAGE_COLUMN_TABLE_H_
