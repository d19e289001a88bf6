"""Construct one instance file, as every glab command does first.

    python3 perfbench/setup_probe.py FILE

The benchmark times this process from spawn to exit: interpreter
start, `import glab`, `load_instance` and `build_instance`.
"""

import sys

from glab.errors import ConstructionError
from glab.instance import build_instance, load_instance

try:
    build_instance(load_instance(sys.argv[1]))
except ConstructionError:
    pass  # a control file is rejected during construction; set-up ends there
