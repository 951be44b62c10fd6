"""Self-contained statistical primitives (no third-party numerics).

Each public name is listed once, in its module's ``__all__``; this
package exports the union of those lists.
"""

from .auc import *
from .hypotests import *
from .logistic import *
from .special import *

__all__ = [*auc.__all__, *hypotests.__all__, *logistic.__all__, *special.__all__]
