"""Entry point for ``python -m lieinv``; the same CLI as the ``lieinv`` script."""

import sys

from .cli import main

sys.exit(main())
