// ASCII table / CSV emitter behind the sweep sinks and the figure views
// that print the rows and series the paper's figures report.
#ifndef STAGEDCMP_COMMON_TABLE_PRINTER_H_
#define STAGEDCMP_COMMON_TABLE_PRINTER_H_

#include <cstdio>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace stagedcmp {

/// Collects rows of strings and renders an aligned ASCII table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  /// Convenience: formats doubles with `prec` digits, passes strings through.
  static std::string Num(double v, int prec = 3) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(prec) << v;
    return os.str();
  }
  static std::string Pct(double frac, int prec = 1) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(prec) << frac * 100.0 << "%";
    return os.str();
  }

  void Print(std::ostream& os = std::cout) const {
    std::vector<size_t> w(header_.size(), 0);
    for (size_t i = 0; i < header_.size(); ++i) w[i] = header_[i].size();
    for (const auto& r : rows_) {
      for (size_t i = 0; i < r.size() && i < w.size(); ++i) {
        if (r[i].size() > w[i]) w[i] = r[i].size();
      }
    }
    PrintRule(os, w);
    PrintRow(os, header_, w);
    PrintRule(os, w);
    for (const auto& r : rows_) PrintRow(os, r, w);
    PrintRule(os, w);
  }

  /// Also emits machine-readable CSV (one figure series per bench run).
  void PrintCsv(std::ostream& os = std::cout) const {
    auto emit = [&os](const std::vector<std::string>& r) {
      for (size_t i = 0; i < r.size(); ++i) {
        if (i) os << ",";
        os << r[i];
      }
      os << "\n";
    };
    emit(header_);
    for (const auto& r : rows_) emit(r);
  }

 private:
  static void PrintRule(std::ostream& os, const std::vector<size_t>& w) {
    os << "+";
    for (size_t x : w) os << std::string(x + 2, '-') << "+";
    os << "\n";
  }
  static void PrintRow(std::ostream& os, const std::vector<std::string>& r,
                       const std::vector<size_t>& w) {
    os << "|";
    for (size_t i = 0; i < w.size(); ++i) {
      std::string cell = i < r.size() ? r[i] : "";
      os << " " << cell << std::string(w[i] - cell.size() + 1, ' ') << "|";
    }
    os << "\n";
  }

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace stagedcmp

#endif  // STAGEDCMP_COMMON_TABLE_PRINTER_H_
