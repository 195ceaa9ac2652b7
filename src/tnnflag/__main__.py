"""``python -m tnnflag``: the command-line interface of ``tnnflag.cli``."""

import sys

from tnnflag.cli import main

sys.exit(main())
