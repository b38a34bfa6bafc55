"""Adam optimizer for Tensor parameters."""

import numpy as np


class Adam:
    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        # two flat work buffers per dtype, as large as the largest parameter
        size = max((p.data.size for p in self.params), default=0)
        self._work = {m.dtype: (np.empty(size, m.dtype), np.empty(size, m.dtype))
                      for m in self._m}

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        """One bias-corrected update in place on each parameter that has a grad.

        m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2 and
        p -= lr (m / c1) / (sqrt(v / c2) + eps), each operation in that
        order in the parameter's dtype, into the moments and two reused
        buffers.
        """
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g, m, v = p.grad, self._m[i], self._v[i]
            a, b = (w[:m.size].reshape(m.shape) for w in self._work[m.dtype])
            m *= b1
            m += np.multiply(1.0 - b1, g, out=a)
            np.multiply(g, g, out=a)
            v *= b2
            v += np.multiply(1.0 - b2, a, out=a)
            np.divide(m, c1, out=a)
            a *= self.lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p.data -= a
