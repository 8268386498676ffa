// detlint-fixture: path=src/core/unordered_iter_neg.cc
std::vector<hermes::HashMap<uint64_t, int>> stores_;
std::vector<hermes::FlatMap<uint64_t, int>> shards_;
std::vector<int> order_;
int Check() {
  int sum = 0;
  for (int v : order_) sum += v;
  for (auto& s : stores_) sum += static_cast<int>(s.size());
  for (auto& s : shards_) sum += static_cast<int>(s.size());
  return sum;
}
