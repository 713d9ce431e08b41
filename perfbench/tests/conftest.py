import sys
from pathlib import Path

# the benchmark's modules import each other as top-level names, and the
# rebinding test imports fracstoch from the checkout's sources
BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
